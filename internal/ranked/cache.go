package ranked

import (
	"container/list"
	"context"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// Option configures an Enumerator or a Sweeper.
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
// builds them once at prepare time), avoiding a rebuild per enumerator.
func WithTables(nt *kernel.NFATables) Option { return func(c *config) { c.nt = nt } }

// WithBounds supplies the weight-pushed potentials for the enumerator's
// (tables, sequence) pair: the enumerator gates its checkpoints and
// prunes its resolves exactly when it has potentials. A non-nil b
// shares one backward sweep across enumerators and probes (core.Engine
// builds them once per binding); nil runs the exhaustive sweep, which
// the pruned kernel matches bit for bit (core.Engine selects it for
// sequences shorter than kernel.BoundsMinN). Without this option the
// enumerator computes its own potentials on first use. Ignored in
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
// ExtendEnumerator instead of being rebuilt. The answer sequence stays
// bit-identical to every other mode; the cost is forgoing the pruning
// win on each cold drain (~1.15×, see EXPERIMENTS.md "Weight-pushed
// pruning") plus the captures' memory, repaid after the first append.
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

// potentials returns the enumerator's weight-pushed potentials,
// computing them on first use unless WithBounds supplied them; nil after
// WithBounds(nil) and in extendable mode (an extendable enumerator's
// retained state must be complete — unpruned frontiers, ungated
// checkpoints — to stay admissible across appends).
func (e *Enumerator) potentials() *kernel.Bounds {
	if e.lazyBounds {
		e.bounds, e.lazyBounds = kernel.NewBounds(e.nt, e.v), false
	}
	return e.bounds
}

// checkpoint returns the cached checkpoint handle aligned to align,
// creating and caching one on a miss. Handles are O(1) and their DP is
// materialized by the first resolve that reads it, so checkpoints of
// parents whose children never reach the Lawler queue front are never
// built at all, and a cancelled materialization publishes nothing and
// is retried by the next resolve.
func (e *Enumerator) checkpoint(align []automata.Symbol) *kernel.Checkpoint {
	if ck := e.cache.get(align, true); ck != nil {
		return ck
	}
	var ck *kernel.Checkpoint
	if e.extendable {
		// A new alignment here is almost always a freshly emitted answer
		// extending an already-cached alignment by a symbol or two (its
		// Lawler parent's output, or a sibling's): give the handle the
		// longest cached strict-prefix donor, materialized or not, so its
		// build shares the donor's zone columns and relaxes O(band) per
		// position instead of re-running the full DP. An unmaterialized
		// donor builds first, once, when the handle is first read.
		ck = kernel.NewLazyCheckpointFrom(e.nt, e.v, align, e.donorFor(align))
	} else {
		ck = kernel.NewLazyCheckpoint(e.nt, e.v, align, e.potentials())
	}
	e.cache.put(automata.StringKey(align), ck)
	return ck
}

// resolveAnswer resolves one Lawler region with cancellation of the
// resume DP, including the checkpoint materialization it may trigger.
// In extendable mode the resume also captures its final past-zone
// frontier and survivor store into the returned resolution's rs, which
// the tree keeps with the region; the region's next resolve after an
// append receives it as prior and continues it over the appended
// positions only, in O(appended suffix).
func (e *Enumerator) resolveAnswer(ctx context.Context, c transducer.Constraint, align []automata.Symbol, prior *kernel.ResumeState) (resolution, bool, error) {
	ck := e.checkpoint(align)
	if !e.extendable {
		o, logE, ok, err := kernel.ResumeConstrainedBoundedCtx(ctx, e.nt, e.v, ck, c, e.potentials(), nil)
		return resolution{Answer: Answer{Output: o, LogEmax: logE}}, ok, err
	}
	rs := new(kernel.ResumeState)
	o, logE, ok, _, err := kernel.ResumeConstrainedIncCtx(ctx, e.nt, e.v, ck, c, prior, rs, nil)
	return resolution{Answer{Output: o, LogEmax: logE}, rs}, ok, err
}

// donorFor looks up the longest cached checkpoint whose alignment is a
// strict prefix of align, probing only the few longest prefixes: a new
// alignment in steady state extends its Lawler parent's (or a tied
// sibling's) cached alignment by the final symbol or two, so a short
// probe finds the donor without scanning the cache.
func (e *Enumerator) donorFor(align []automata.Symbol) *kernel.Checkpoint {
	for l := len(align) - 1; l >= 1 && l >= len(align)-3; l-- {
		if ck := e.cache.get(align[:l], false); ck != nil {
			return ck
		}
	}
	return nil
}

// extend returns the successor of the extendable enumerator e over mNew —
// an append-grown snapshot of its sequence (markov.Sequence.Extended) —
// carrying e's checkpoint cache but no Lawler tree yet. Carried
// checkpoints become O(1) extension handles
// (kernel.NewExtendedLazyCheckpoint): the DP over the shared prefix is
// reused and only the appended layers are ever relaxed. e is only read.
func (e *Enumerator) extend(mNew *markov.Sequence) *Enumerator {
	ne := &Enumerator{
		nt:             e.nt,
		v:              mNew.View(),
		extendable:     true,
		reused:         e.reused,
		reseeded:       e.reseeded,
		handlesSkipped: e.handlesSkipped,
	}
	ne.cache.init(e.cache.cap, len(e.cache.items))
	// Least recently used first, so the successor's LRU order is e's.
	for el := e.cache.order.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*ckEntry)
		if !ent.ck.Extendable(ne.nt, ne.v) {
			continue
		}
		if ent.ck.MaterializedLayers() == 0 && ent.ck.Layers() > 0 {
			// The previous drain emitted its answers without this handle
			// ever relaxing a layer: every child aligned to it stayed
			// bound-dominated. The extension handle keeps the deferral —
			// if that stays true over the grown sequence, the DP is never
			// run at all.
			ne.handlesSkipped++
		}
		ne.cache.put(ent.key, kernel.NewExtendedLazyCheckpoint(ne.nt, ne.v, ent.ck))
	}
	return ne
}

// ckptCache is an LRU of checkpoints keyed by alignment string. Like the
// enumerator that owns it, it is not safe for concurrent use.
type ckptCache struct {
	cap   int
	items map[string]*list.Element
	order list.List // front = most recently used
	// key is the lookup key buffer, reused by every get, so only an
	// insert allocates a key.
	key []byte
}

type ckEntry struct {
	key string
	ck  *kernel.Checkpoint
}

// init empties the cache with LRU capacity cap and its map sized for
// size entries: the ones a carry brings over, none for a fresh cache.
// Presizing to cap would allocate and clear room for every entry a cold
// cache may never hold.
func (c *ckptCache) init(cap, size int) {
	c.cap = cap
	c.items = make(map[string]*list.Element, size)
	c.order.Init()
}

// get returns the checkpoint cached for align, or nil. touch records a
// use in the LRU order; probes that only look (donor searches, the
// reseed's zone pricing) leave the order alone.
func (c *ckptCache) get(align []automata.Symbol, touch bool) *kernel.Checkpoint {
	c.key = automata.AppendKey(c.key[:0], align)
	el, ok := c.items[string(c.key)]
	if !ok {
		return nil
	}
	if touch {
		c.order.MoveToFront(el)
	}
	return el.Value.(*ckEntry).ck
}

// put caches ck under key, which must not be cached yet, as the most
// recently used entry, evicting from the back past capacity.
func (c *ckptCache) put(key string, ck *kernel.Checkpoint) {
	c.items[key] = c.order.PushFront(&ckEntry{key: key, ck: ck})
	for len(c.items) > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*ckEntry).key)
	}
}
