package ranked

import (
	"container/list"
	"context"
	"math"
	"sync"
	"sync/atomic"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// Option configures an Evaluator or Enumerator.
type Option func(*config)

type config struct {
	nt         *kernel.NFATables
	extendable bool
	bounds     *kernel.Bounds
	// boundsSet tells WithBounds(nil), the exhaustive sweep, from no
	// WithBounds at all, which computes the potentials on first use.
	boundsSet bool
}

// WithWorkers is a no-op: every enumeration resolves sequentially.
//
// Deprecated: the speculative-resolution pool it sized is gone; the
// option remains only until its last caller drops it.
func WithWorkers(int) Option { return func(*config) {} }

// WithTables supplies pre-built base transducer tables (core.Prepared
// builds them once at prepare time), avoiding a rebuild per evaluator.
func WithTables(nt *kernel.NFATables) Option { return func(c *config) { c.nt = nt } }

// WithBounds supplies the weight-pushed potentials for the evaluator's
// (tables, sequence) pair: the evaluator gates its checkpoints and
// prunes its resolves exactly when it has potentials. A non-nil b
// shares one backward sweep across evaluators and probes (core.Engine
// builds them once per binding); nil runs the exhaustive sweep, which
// the pruned kernel matches bit for bit (core.Engine selects it for
// sequences shorter than kernel.BoundsMinN). Without this option the
// evaluator computes its own potentials on first use. Ignored in
// extendable mode.
func WithBounds(b *kernel.Bounds) Option {
	return func(c *config) { c.bounds, c.boundsSet = b, true }
}

// WithExtendable selects the append-extendable serving mode: resolves
// run unpruned and capture their final past-zone frontier, which the
// Lawler tree keeps with the region that resolved, and prefix
// checkpoints are built ungated as lazy handles — so the whole drain
// state (checkpoint cache, Lawler tree with its captures) remains valid
// forward state when the sequence grows and can be carried by
// Evaluator.Extend / ExtendEnumerator instead of being rebuilt. The
// answer sequence stays bit-identical to every other mode; the cost is
// forgoing the pruning win on each cold drain (~1.15×, see
// EXPERIMENTS.md "Weight-pushed pruning") plus the captures' memory,
// repaid after the first append.
// core.Engine turns this on automatically for engines reached through
// the append path (Prepared.ExtendValidated).
func WithExtendable() Option { return func(c *config) { c.extendable = true } }

const defaultCheckpointCap = 32

// extendableCheckpointCap is the default LRU capacity in extendable
// mode. The cross-append reseed prices every carried subproblem from
// its resolve capture plus the checkpoint of its alignment — the
// cache's working set is the whole live Lawler frontier, not the
// handful of alignments one drain touches. A cap sized for cold drains
// evicts most of that set between appends, and every evicted alignment
// demotes its subproblems to the coarse global bound G, forcing a full
// re-resolve storm per append that costs more than rebuilding.
const extendableCheckpointCap = 4096

// Evaluator owns the constraint-incremental machinery for one
// (transducer, sequence) pair: base tables built once, the sequence's
// CSR view, and a bounded LRU of prefix checkpoints keyed by alignment
// string. Its public methods (TopEmax, Emax, BestEvidence, Extend and
// the stats readers) are safe for concurrent use; an Enumerator built on
// it is not, and drains on the caller's goroutine.
type Evaluator struct {
	t     *transducer.Transducer
	m     *markov.Sequence
	nt    *kernel.NFATables
	v     *kernel.SeqView
	cache ckptCache

	// bounds are the weight-pushed potentials driving checkpoint gating
	// and resume pruning; nil when WithBounds(nil) selected the
	// exhaustive sweep, and in extendable mode. Built lazily (one
	// backward pass) unless supplied.
	extendable bool
	boundsOnce sync.Once
	bounds     *kernel.Bounds

	// bscratch recycles the reseed's throwaway backward-sweep storage
	// (kernel.NewBoundsInto) along the extension chain: ExtendEnumerator
	// takes it from the evaluator it carries from and leaves it on the
	// one it carries to, so a lineage holds one N·K·Q float64 array
	// instead of allocating one per append. A concurrent second carry
	// from one evaluator finds it taken and allocates afresh.
	bscratch atomic.Pointer[kernel.Bounds]

	// Cross-append reuse counters (kernel.PruneStats.RankedReused etc.);
	// Extend copies them into the successor evaluator so cache-level sums
	// stay monotone across engine generations. Atomic because
	// lahar.CacheStats reads them while engines drain.
	reused, reseeded, handlesSkipped atomic.Uint64
}

// NewEvaluator builds an evaluator for t over m. WithTables reuses
// already-built base tables.
func NewEvaluator(t *transducer.Transducer, m *markov.Sequence, opts ...Option) *Evaluator {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	ckCap := defaultCheckpointCap
	if cfg.extendable {
		ckCap = extendableCheckpointCap
	}
	nt := cfg.nt
	if nt == nil {
		nt = kernel.NewNFATables(t)
	}
	ev := &Evaluator{t: t, m: m, nt: nt, v: m.View(), extendable: cfg.extendable}
	if cfg.boundsSet && !cfg.extendable {
		ev.bounds = cfg.bounds
		ev.boundsOnce.Do(func() {})
	}
	ev.cache.init(ckCap, 0)
	return ev
}

// Tables returns the evaluator's base transducer tables.
func (ev *Evaluator) Tables() *kernel.NFATables { return ev.nt }

// Bounds returns the evaluator's weight-pushed potentials, computing
// them on first use unless WithBounds supplied them; nil after
// WithBounds(nil) and in extendable mode (an extendable evaluator's
// retained state must be complete — unpruned frontiers, ungated
// checkpoints — to stay admissible across appends).
func (ev *Evaluator) Bounds() *kernel.Bounds {
	if ev.extendable {
		return nil
	}
	ev.boundsOnce.Do(func() { ev.bounds = kernel.NewBounds(ev.nt, ev.v) })
	return ev.bounds
}

// Extendable reports whether the evaluator runs in the append-extendable
// mode (WithExtendable / Evaluator.Extend).
func (ev *Evaluator) Extendable() bool { return ev.extendable }

// ExtendStats returns the cross-append reuse counters: answers carried
// as exact singletons, frontier subproblems re-seeded with fresh bounds,
// and carried checkpoint handles that never materialized. Cumulative
// across Extend generations.
func (ev *Evaluator) ExtendStats() (reused, reseeded, handlesSkipped uint64) {
	return ev.reused.Load(), ev.reseeded.Load(), ev.handlesSkipped.Load()
}

// PruneStats reports the pruning-efficacy counters accumulated by the
// evaluator's kernel calls: those of its potentials, so all zero while
// it has none (WithBounds(nil), extendable mode).
func (ev *Evaluator) PruneStats() kernel.PruneStats { return ev.bounds.Stats() }

// checkpoint returns the cached checkpoint handle aligned to align,
// creating and caching one on a miss. Handles are O(1) and their DP is
// materialized by the first resolve that reads it, so checkpoints of
// parents whose children never reach the Lawler queue front are never
// built at all, and a cancelled materialization publishes nothing and
// is retried by the next resolve. Two concurrent public calls may both
// miss on one alignment; put hands the later one the handle the earlier
// one inserted, so both resume from one checkpoint.
func (ev *Evaluator) checkpoint(align []automata.Symbol) *kernel.Checkpoint {
	key := automata.StringKey(align)
	if ck := ev.cache.get(key); ck != nil {
		return ck
	}
	var ck *kernel.Checkpoint
	if ev.extendable {
		// A new alignment here is almost always a freshly emitted answer
		// extending an already-cached alignment by a symbol or two (its
		// Lawler parent's output, or a sibling's): give the handle the
		// longest cached strict-prefix donor, materialized or not, so its
		// build shares the donor's zone columns and relaxes O(band) per
		// position instead of re-running the full DP. An unmaterialized
		// donor builds first, once, when the handle is first read.
		ck = kernel.NewLazyCheckpointFrom(ev.nt, ev.v, align, ev.donorFor(align))
	} else {
		ck = kernel.NewLazyCheckpoint(ev.nt, ev.v, align, ev.Bounds())
	}
	return ev.cache.put(key, ck)
}

// resolve solves the constrained top-answer problem for c against the
// checkpoint aligned to align (which must extend c.Prefix), for the
// public one-call methods: nothing is captured, since no Lawler region
// will continue from it.
func (ev *Evaluator) resolve(c transducer.Constraint, align []automata.Symbol) (out, nodes []automata.Symbol, logE float64, ok bool) {
	out, nodes, _, logE, ok, _ = kernel.ResumeConstrainedBoundedCtx(context.Background(), ev.nt, ev.v, ev.checkpoint(align), c, ev.Bounds(), nil)
	return out, nodes, logE, ok
}

// resolveAnswer resolves one Lawler region with cancellation of the
// resume DP, including the checkpoint materialization it may trigger.
// In extendable mode the resume also captures its final past-zone
// frontier and survivor store into the returned resolution's rs, which
// the tree keeps with the region; the region's next resolve after an
// append receives it as prior and continues it over the appended
// positions only, in O(appended suffix).
func (ev *Evaluator) resolveAnswer(ctx context.Context, c transducer.Constraint, align []automata.Symbol, prior *kernel.ResumeState) (resolution, bool, error) {
	ck := ev.checkpoint(align)
	if !ev.extendable {
		o, _, _, logE, ok, err := kernel.ResumeConstrainedBoundedCtx(ctx, ev.nt, ev.v, ck, c, ev.Bounds(), nil)
		return resolution{Answer: Answer{Output: o, LogEmax: logE}}, ok, err
	}
	rs := new(kernel.ResumeState)
	o, _, _, logE, ok, _, err := kernel.ResumeConstrainedIncCtx(ctx, ev.nt, ev.v, ck, c, prior, rs, nil)
	return resolution{Answer{Output: o, LogEmax: logE}, rs}, ok, err
}

// donorFor looks up the longest cached checkpoint whose alignment is a
// strict prefix of align, probing only the few longest prefixes: a new
// alignment in steady state extends its Lawler parent's (or a tied
// sibling's) cached alignment by the final symbol or two, so a short
// probe finds the donor without scanning the cache.
func (ev *Evaluator) donorFor(align []automata.Symbol) *kernel.Checkpoint {
	for l := len(align) - 1; l >= 1 && l >= len(align)-3; l-- {
		if ck := ev.cache.peek(automata.StringKey(align[:l])); ck != nil {
			return ck
		}
	}
	return nil
}

// Extend derives an evaluator over mNew — an append-grown snapshot of
// the receiver's sequence (markov.Sequence.Extended) — that carries the
// receiver's checkpoint cache instead of starting cold. Carried checkpoints become O(1) extension handles
// (kernel.NewExtendedLazyCheckpoint): the DP over the shared prefix is
// reused and only the appended layers are ever relaxed. The receiver is
// only read, so it may keep serving concurrently; the new evaluator is
// extendable in turn, chaining across any number of appends. The
// receiver must itself be extendable — gated checkpoints and pruned
// frontiers from other modes are not valid forward state.
func (ev *Evaluator) Extend(mNew *markov.Sequence) *Evaluator {
	if !ev.extendable {
		panic("ranked: Extend on a non-extendable evaluator")
	}
	nev := &Evaluator{
		t:          ev.t,
		m:          mNew,
		nt:         ev.nt,
		v:          mNew.View(),
		extendable: true,
	}
	carried := ev.cache.snapshot()
	nev.cache.init(ev.cache.cap, len(carried))
	nev.reused.Store(ev.reused.Load())
	nev.reseeded.Store(ev.reseeded.Load())
	nev.handlesSkipped.Store(ev.handlesSkipped.Load())
	var skipped uint64
	for _, ent := range carried {
		if !ent.ck.Extendable(nev.nt, nev.v) {
			continue
		}
		if ent.ck.MaterializedLayers() == 0 && ent.ck.Layers() > 0 {
			// The previous drain emitted its answers without this handle
			// ever relaxing a layer: every child aligned to it stayed
			// bound-dominated. The extension handle keeps the deferral —
			// if that stays true over the grown sequence, the DP is never
			// run at all.
			skipped++
		}
		nev.cache.put(ent.key, kernel.NewExtendedLazyCheckpoint(nev.nt, nev.v, ent.ck))
	}
	nev.handlesSkipped.Add(skipped)
	return nev
}

// TopEmax returns an answer with maximal E_max among those c admits,
// resolving through the checkpoint cache aligned to c's own prefix.
func (ev *Evaluator) TopEmax(c transducer.Constraint) (o []automata.Symbol, logE float64, ok bool) {
	o, _, logE, ok = ev.resolve(c, c.Prefix)
	return o, logE, ok
}

// Emax computes log E_max(o) through the cached base tables (and, when
// the enumerator has just printed o, its cached checkpoint). It returns
// -Inf when o is not an answer.
func (ev *Evaluator) Emax(o []automata.Symbol) float64 {
	_, _, logE, ok := ev.resolve(transducer.Constraint{Prefix: o, Mode: transducer.ExactOnly}, o)
	if !ok {
		return math.Inf(-1)
	}
	return logE
}

// BestEvidence returns the maximum-probability possible world transduced
// into o — a witness of E_max(o) — through the cached base tables.
func (ev *Evaluator) BestEvidence(o []automata.Symbol) (s []automata.Symbol, logE float64, ok bool) {
	_, nodes, logE, ok := ev.resolve(transducer.Constraint{Prefix: o, Mode: transducer.ExactOnly}, o)
	return nodes, logE, ok
}

// ckptCache is a mutex-guarded LRU of checkpoints keyed by alignment
// string. The mutex serves the Evaluator's concurrent public callers
// (TopEmax, Emax and BestEvidence on one evaluator, and an Extend
// snapshotting the cache while its receiver keeps serving).
type ckptCache struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	order list.List // front = most recently used
}

type ckEntry struct {
	key string
	ck  *kernel.Checkpoint
}

// init empties the cache with LRU capacity cap and its map sized for
// size entries: the ones Extend carries over, none for a fresh cache.
// Presizing to cap would allocate and clear room for every entry a cold
// cache may never hold.
func (c *ckptCache) init(cap, size int) {
	c.cap = cap
	c.items = make(map[string]*list.Element, size)
	c.order.Init()
}

// get returns the cached checkpoint for key, recording a use, or nil.
func (c *ckptCache) get(key string) *kernel.Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*ckEntry).ck
	}
	return nil
}

// peek returns the cached checkpoint for key without recording a use or
// building on a miss.
func (c *ckptCache) peek(key string) *kernel.Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*ckEntry).ck
	}
	return nil
}

// peekBytes is peek for callers that assemble keys into a reused
// buffer; the string(key) map index does not allocate.
func (c *ckptCache) peekBytes(key []byte) *kernel.Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[string(key)]; ok {
		return el.Value.(*ckEntry).ck
	}
	return nil
}

// snapshot returns the current entries in least-recently-used-first
// order, so that replaying them through put reproduces the same LRU
// order in a fresh cache. Used by Extend to carry the cache across an
// append.
func (c *ckptCache) snapshot() []*ckEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*ckEntry, 0, len(c.items))
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*ckEntry))
	}
	return out
}

// put caches ck under key as the most recently used entry, evicting
// from the back past capacity, and returns the checkpoint now cached
// under key: ck, or the one a concurrent caller inserted first.
func (c *ckptCache) put(key string, ck *kernel.Checkpoint) *kernel.Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*ckEntry).ck
	}
	c.items[key] = c.order.PushFront(&ckEntry{key: key, ck: ck})
	for len(c.items) > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*ckEntry).key)
	}
	return ck
}
