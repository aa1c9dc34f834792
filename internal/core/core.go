// Package core is the query-evaluation engine: it classifies a query
// against the tractability map of Kimelfeld & Ré (PODS 2010), Table 2,
// selects the algorithms accordingly, and exposes the choice as an
// explainable plan. It is the layer a database system (package lahar, the
// msq facade, the CLI) builds on.
//
// Classification drives three decisions:
//
//   - confidence: Theorem 4.6's DP (deterministic), its k-uniform fast
//     path, Theorem 4.8's subset DP (uniform nondeterministic),
//     Theorem 5.5 (s-projector), Theorem 5.8 (indexed s-projector), or —
//     for the FP^#P-complete remainder — refusal with an optional Monte
//     Carlo estimate;
//   - ranking: exact decreasing confidence (Theorem 5.7, indexed
//     s-projectors), I_max with ratio n (Theorem 5.2, s-projectors), or
//     E_max with ratio |Σ|ⁿ (Theorem 4.3, everything else);
//   - enumeration: the unranked polynomial-delay traversal (Theorem 4.1)
//     is always available.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"markovseq/internal/automata"
	"markovseq/internal/conf"
	"markovseq/internal/enum"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/ranked"
	"markovseq/internal/sproj"
	"markovseq/internal/transducer"
)

// Class is the query class per the columns of Table 2.
type Class int

const (
	// ClassMealy: deterministic, non-selective, 1-uniform.
	ClassMealy Class = iota
	// ClassDeterministic: the underlying automaton is deterministic.
	ClassDeterministic
	// ClassUniform: nondeterministic with k-uniform emission.
	ClassUniform
	// ClassGeneral: nondeterministic, non-uniform (the FP^#P-complete
	// confidence class).
	ClassGeneral
	// ClassSProjector: a substring projector [B]A[E].
	ClassSProjector
	// ClassIndexedSProjector: an indexed substring projector [B]↓A[E].
	ClassIndexedSProjector
)

func (c Class) String() string {
	switch c {
	case ClassMealy:
		return "Mealy machine"
	case ClassDeterministic:
		return "deterministic transducer"
	case ClassUniform:
		return "uniform-emission nondeterministic transducer"
	case ClassGeneral:
		return "general (nondeterministic, non-uniform) transducer"
	case ClassSProjector:
		return "s-projector"
	case ClassIndexedSProjector:
		return "indexed s-projector"
	default:
		return "unknown"
	}
}

// Plan records the algorithm selection for a query.
type Plan struct {
	// Class is the query's Table 2 column.
	Class Class
	// Confidence names the confidence algorithm ("" when the class is
	// FP^#P-complete and only estimation applies).
	Confidence string
	// Ranking names the ranked-enumeration algorithm.
	Ranking string
	// Ratio describes the worst-case approximation ratio of the ranked
	// order w.r.t. true confidence.
	Ratio string
	// Hard is set when exact confidence computation is FP^#P-complete.
	Hard bool
}

// Explain renders the plan as the kind of EXPLAIN output a database user
// expects.
func (p Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "class:      %s\n", p.Class)
	if p.Hard {
		fmt.Fprintf(&b, "confidence: FP^#P-complete (Theorem 4.9); Monte Carlo additive estimation available\n")
	} else {
		fmt.Fprintf(&b, "confidence: %s\n", p.Confidence)
	}
	fmt.Fprintf(&b, "ranking:    %s\n", p.Ranking)
	fmt.Fprintf(&b, "ratio:      %s\n", p.Ratio)
	return b.String()
}

// Answer is one evaluated answer.
type Answer struct {
	Output []automata.Symbol
	// Index is the occurrence index for indexed s-projector answers.
	Index int
	// Score is the ranking score (confidence, I_max, or E_max — see Kind).
	Score float64
	Kind  string
}

// PrepareOption configures query preparation.
type PrepareOption func(*prepConfig)

type prepConfig struct{}

// WithRankedWorkers is a no-op: the ranked enumerators (Theorem 4.3
// E_max and Lemma 5.10 I_max) always resolve sequentially.
//
// Deprecated: the speculative-resolution pool it sized is gone; the
// option remains only until its last caller drops it.
func WithRankedWorkers(int) PrepareOption { return func(*prepConfig) {} }

// Prepared is a query compiled ahead of binding to a sequence: the
// Table-2 classification, the plan, (for s-projectors) the equivalent
// transducer, and the flat sparse-kernel tables of the confidence DPs
// are computed exactly once, so serving layers that evaluate the same
// query over many sequences — or many windows of one sequence — pay the
// compilation cost once. A Prepared is immutable and safe for concurrent
// use by any number of Bind calls.
type Prepared struct {
	t       *transducer.Transducer // nil for s-projector queries
	p       *sproj.SProjector      // nil for transducer queries
	et      *transducer.Transducer // equivalent transducer for s-projector queries
	indexed bool
	plan    Plan

	// Flat kernel tables, built at preparation time (nil when the class
	// does not use them).
	dt         *kernel.DetTables // deterministic classes
	nt         *kernel.NFATables // uniform nondeterministic class
	uniformK   int
	hasUniform bool

	// pt is the preprocessed (trimmed) equivalent transducer the
	// enumeration and membership paths run on: states unreachable from
	// the start or unable to reach acceptance are dropped at prepare time
	// (transducer.Preprocess), which the transduction relation — and with
	// it every score and tie — survives exactly. Classification and the
	// confidence DPs stay on the original query so plans read as written.
	pt *transducer.Transducer
	// baseNT is the flat base tables of pt, shared by the
	// constraint-incremental ranked enumeration, the unranked
	// enumeration's nonemptiness probes, and IsAnswer — none of which
	// materialize per-constraint products or rebuild tables per call.
	baseNT *kernel.NFATables
}

// PrepareTransducer classifies a transducer query (the columns of
// Table 2) without binding it to a sequence, and compiles the flat
// sparse-kernel tables the confidence DPs run on.
func PrepareTransducer(t *transducer.Transducer, _ ...PrepareOption) *Prepared {
	pr := &Prepared{t: t}
	k, uniform := t.UniformK()
	pr.uniformK, pr.hasUniform = k, uniform
	switch {
	case t.IsMealy():
		pr.plan = Plan{
			Class:      ClassMealy,
			Confidence: fmt.Sprintf("Theorem 4.6 k-uniform DP (k=%d)", k),
		}
	case t.IsDeterministic():
		algo := "Theorem 4.6 DP, O(|o|·n·|Σ|²·|Q|²)"
		if uniform {
			algo = fmt.Sprintf("Theorem 4.6 k-uniform DP (k=%d)", k)
		}
		pr.plan = Plan{Class: ClassDeterministic, Confidence: algo}
	case uniform:
		pr.plan = Plan{
			Class:      ClassUniform,
			Confidence: fmt.Sprintf("Theorem 4.8 subset DP (k=%d), O(n·k·|Σ|²·4^|Q|)", k),
		}
	default:
		pr.plan = Plan{Class: ClassGeneral, Hard: true}
	}
	switch pr.plan.Class {
	case ClassMealy, ClassDeterministic:
		pr.dt = kernel.NewDetTables(t)
	case ClassUniform:
		if t.NumStates() <= kernel.MaxUniformStates {
			pr.nt = kernel.NewNFATables(t)
		}
	}
	pr.plan.Ranking = "E_max Lawler–Murty enumeration (Theorem 4.3), polynomial delay"
	pr.plan.Ratio = "|Σ|^n-approximately decreasing confidence (worst-case optimal up to 2^{n^{1-δ}}, Theorem 4.4)"
	// Base tables for ranked enumeration, unranked enumeration, and
	// membership, built over the trimmed query. When trimming removed
	// nothing and the uniform-class confidence tables exist they are the
	// same object, so reuse them.
	pr.pt = transducer.Preprocess(t)
	if pr.nt != nil && pr.pt == t {
		pr.baseNT = pr.nt
	} else {
		pr.baseNT = kernel.NewNFATables(pr.pt)
	}
	return pr
}

// PrepareSProjector classifies an s-projector query; indexed selects the
// [B]↓A[E] semantics. The equivalent transducer (used by unranked
// enumeration, membership, and Monte Carlo estimation) is built eagerly —
// along with its flat base tables — so Bind and the per-call paths never
// rebuild either.
func PrepareSProjector(p *sproj.SProjector, indexed bool, _ ...PrepareOption) *Prepared {
	pr := &Prepared{p: p, et: p.ToTransducer(), indexed: indexed}
	pr.pt = transducer.Preprocess(pr.et)
	pr.baseNT = kernel.NewNFATables(pr.pt)
	if indexed {
		pr.plan = Plan{
			Class:      ClassIndexedSProjector,
			Confidence: "Theorem 5.8 DP, O(n·|Σ|²·|Q|²)",
			Ranking:    "exact decreasing confidence via DAG path enumeration (Theorem 5.7)",
			Ratio:      "exact order",
		}
	} else {
		pr.plan = Plan{
			Class:      ClassSProjector,
			Confidence: "Theorem 5.5 DP, O(n·|o|²·|Σ|²·|Q_B|²·4^{|Q_E|})",
			Ranking:    "I_max Lawler enumeration (Lemma 5.10)",
			Ratio:      "n-approximately decreasing confidence (Proposition 5.9 / Theorem 5.2)",
		}
	}
	return pr
}

// Plan returns the compiled plan.
func (pr *Prepared) Plan() Plan { return pr.plan }

// Bind attaches the prepared query to a sequence, validating the
// sequence and the alphabet agreement. The classification is reused, not
// recomputed.
func (pr *Prepared) Bind(m *markov.Sequence) (*Engine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return pr.BindValidated(m)
}

// BindValidated is Bind without re-validating the sequence. Use it for
// sequences already known valid — e.g. the window marginals of a
// validated stream — where the O(n·|Σ|²) validation pass would dominate
// the per-window work.
func (pr *Prepared) BindValidated(m *markov.Sequence) (*Engine, error) {
	if pr.t != nil {
		if pr.t.In.Size() != m.Nodes.Size() {
			return nil, fmt.Errorf("core: transducer reads %d symbols, sequence has %d nodes",
				pr.t.In.Size(), m.Nodes.Size())
		}
	} else if pr.p.Alphabet().Size() != m.Nodes.Size() {
		return nil, fmt.Errorf("core: s-projector reads %d symbols, sequence has %d nodes",
			pr.p.Alphabet().Size(), m.Nodes.Size())
	}
	return &Engine{
		m: m, t: pr.t, p: pr.p, et: pr.et, indexed: pr.indexed, plan: pr.plan,
		dt: pr.dt, nt: pr.nt, uniformK: pr.uniformK, hasUniform: pr.hasUniform,
		pt: pr.pt, baseNT: pr.baseNT,
	}, nil
}

// ExtendValidated binds the prepared query to m — an already-validated
// extension of old's sequence — carrying old's ranked enumeration state
// across the append: the predecessor's resolved Lawler tree is reseeded
// against the grown sequence (ranked.ExtendEnumerator), so the first
// TopK on the new engine re-prices the answers already proven instead
// of re-enumerating the full stream, and unresolved subproblems re-enter
// bounded. old == nil (or an old engine that never ran TopK) yields an
// engine with nothing carried but ranked serving in extendable mode, so
// the next append can carry.
//
// S-projector queries, whose rankers are not Lawler-tree-based, fall
// back to ordinary binding. The carried order agrees with a fresh
// BindValidated drain of m rank by rank on bit-identical scores,
// set-identically within exactly tied score classes.
func (pr *Prepared) ExtendValidated(old *Engine, m *markov.Sequence) (*Engine, error) {
	eng, err := pr.BindValidated(m)
	if err != nil {
		return nil, err
	}
	if pr.t == nil {
		return eng, nil
	}
	eng.rankedExtendable = true
	if old == nil {
		return eng, nil
	}
	// A ranked enumerator is not safe for concurrent use, its carry
	// included: holding old.mu keeps a drain of the predecessor, or a
	// second carry from it, out of this one.
	old.mu.Lock()
	if old.topEnum != nil {
		if ne, ok := ranked.ExtendEnumerator(old.topEnum, m, 1); ok {
			eng.topEnum = ne
		}
	}
	old.mu.Unlock()
	return eng, nil
}

// Engine evaluates one query over one Markov sequence.
//
// Concurrency: an Engine is safe for concurrent use. The query, the
// sequence, and the plan are immutable after construction. Confidence,
// EstimateConfidence, IsAnswer, Plan and Explain are stateless — every
// call allocates its own DP tables — so any number of goroutines may
// call them at once. TopK, TopKWithConfidence and Enumerate memoize
// their enumeration state (the ranked/unranked answer prefixes built so
// far) under an internal mutex: concurrent calls serialize on that
// mutex, and repeated calls extend the memo instead of re-enumerating
// from scratch — this is what makes a cached engine cheap to serve.
// Callers must treat returned Answer.Output slices as read-only (they
// are shared with the memo), and must not share a *rand.Rand across
// concurrent EstimateConfidence calls.
type Engine struct {
	m       *markov.Sequence
	t       *transducer.Transducer // nil for s-projector queries
	p       *sproj.SProjector      // nil for transducer queries
	et      *transducer.Transducer // cached equivalent transducer for s-projector queries
	indexed bool
	plan    Plan

	// Kernel tables inherited from the Prepared (nil when the class does
	// not use them).
	dt         *kernel.DetTables
	nt         *kernel.NFATables
	uniformK   int
	hasUniform bool

	// Preprocessed equivalent transducer and its base tables, inherited
	// from the Prepared (see Prepared.pt / Prepared.baseNT).
	pt     *transducer.Transducer
	baseNT *kernel.NFATables

	// rankedExtendable selects the append-extendable ranked serving
	// mode (ranked.WithExtendable): resolves run unpruned and the
	// enumerator retains its resolved tree so a successor engine built
	// by ExtendValidated can carry it across an append. Set by
	// ExtendValidated, never by Bind — one-shot engines keep the
	// weight-pushed pruned path (from kernel.BoundsMinN positions on).
	rankedExtendable bool

	// mu guards the lazily-built enumeration memos below; everything
	// above is read-only after construction.
	mu sync.Mutex
	// topNext is the live ranked iterator (nil until first TopK);
	// topCache is the non-increasing answer prefix drawn from it so far.
	// A non-nil error from topNext means no answer was consumed and the
	// iterator can be retried with a live context.
	topNext  func(ctx context.Context) (Answer, bool, error)
	topCache []Answer
	topDone  bool
	// topEnum is the E_max enumerator behind topNext: carried from a
	// predecessor engine by ExtendValidated, or built by the first TopK.
	// It is held so ExtendValidated can carry it and PruneStats can
	// report its cross-append reuse counters.
	topEnum *ranked.Enumerator
	// enumIter / enumCache memoize the unranked enumeration likewise.
	enumIter  *enum.Enumerator
	enumCache [][]automata.Symbol
	enumDone  bool
}

// NewTransducerEngine classifies and wraps a transducer query.
func NewTransducerEngine(t *transducer.Transducer, m *markov.Sequence) (*Engine, error) {
	return PrepareTransducer(t).Bind(m)
}

// NewSProjectorEngine classifies and wraps an s-projector query; indexed
// selects the [B]↓A[E] semantics.
func NewSProjectorEngine(p *sproj.SProjector, m *markov.Sequence, indexed bool) (*Engine, error) {
	return PrepareSProjector(p, indexed).Bind(m)
}

// equivalent returns the transducer form of the query (the query itself,
// or the cached s-projector conversion).
func (e *Engine) equivalent() *transducer.Transducer {
	if e.t != nil {
		return e.t
	}
	return e.et
}

// PruneStats reports the counters of the engine's E_max enumerator
// (ranked.Enumerator.PruneStats), all zero before the first ranked call.
// Its pruning counters stay zero below kernel.BoundsMinN positions and
// for engines reached through ExtendValidated.
func (e *Engine) PruneStats() kernel.PruneStats {
	e.mu.Lock()
	re := e.topEnum
	e.mu.Unlock()
	if re == nil {
		return kernel.PruneStats{}
	}
	return re.PruneStats()
}

// Plan returns the selected plan.
func (e *Engine) Plan() Plan { return e.plan }

// Explain returns the plan rendered for humans.
func (e *Engine) Explain() string { return e.plan.Explain() }

// Confidence computes the confidence of an answer. For indexed
// s-projector queries, index (1-based) selects the occurrence; it is
// ignored otherwise. For the FP^#P-complete class an error is returned;
// use EstimateConfidence.
func (e *Engine) Confidence(o []automata.Symbol, index int) (float64, error) {
	return e.ConfidenceCtx(context.Background(), o, index)
}

// ConfidenceCtx is Confidence with step-granularity cancellation: the
// sparse kernels poll the context every few sequence positions, so a
// deadline aborts an n=10⁵ DP promptly instead of after the full pass.
// The lazy subset DP for uniform transducers too large for kernel
// tables checks the context only on entry.
func (e *Engine) ConfidenceCtx(ctx context.Context, o []automata.Symbol, index int) (float64, error) {
	// Fail fast on a context that is already dead: the kernels only poll
	// every few positions, so a short input could otherwise complete a
	// cancelled query.
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	switch e.plan.Class {
	case ClassIndexedSProjector:
		if index < 1 {
			return 0, fmt.Errorf("core: indexed query requires an occurrence index ≥ 1")
		}
		return e.p.IndexedConfidenceCtx(ctx, e.m, o, index)
	case ClassSProjector:
		return e.p.ConfidenceCtx(ctx, e.m, o)
	case ClassMealy, ClassDeterministic:
		// Sparse frontier kernel over the tables built at prepare time.
		if e.hasUniform {
			return kernel.DetUniformConfidenceCtx(ctx, e.dt, e.m.View(), e.uniformK, o, nil)
		}
		return kernel.DetConfidenceCtx(ctx, e.dt, e.m.View(), o, nil)
	case ClassUniform:
		if e.nt != nil {
			return kernel.UniformConfidenceCtx(ctx, e.nt, e.m.View(), e.uniformK, o, nil)
		}
		// >MaxUniformStates: no subset-kernel tables; fall back to the
		// on-demand lazy DP, which does not materialize the powerset.
		return conf.Uniform(e.t, e.m, o), nil
	default:
		return 0, fmt.Errorf("core: exact confidence for %s is FP^#P-complete (Theorem 4.9); use EstimateConfidence", e.plan.Class)
	}
}

// EstimateConfidence is the Monte Carlo fallback for the hard class (it
// works for every transducer class; s-projector queries estimate through
// the equivalent transducer). The error is additive: ±ε with probability
// 1−δ given conf.SamplesFor(ε, δ) samples.
func (e *Engine) EstimateConfidence(o []automata.Symbol, samples int, rng *rand.Rand) float64 {
	return conf.Estimate(e.equivalent(), e.m, o, samples, rng)
}

// initTopCtx prepares the ranked iterator for the plan's ranking. Called
// with e.mu held. A context error during preparation (the indexed class
// builds its answer DAG here) leaves the engine unprepared — nothing is
// memoized, so a later call with a live context starts cleanly.
func (e *Engine) initTopCtx(ctx context.Context) error {
	switch e.plan.Class {
	case ClassIndexedSProjector:
		it, err := e.p.EnumerateIndexedCtx(ctx, e.m)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			// Structural failure (degenerate DAG): an empty enumeration,
			// as before.
			e.topDone = true
			e.topNext = func(context.Context) (Answer, bool, error) { return Answer{}, false, nil }
			return nil
		}
		e.topNext = func(ctx context.Context) (Answer, bool, error) {
			a, ok, err := it.NextCtx(ctx)
			if err != nil || !ok {
				return Answer{}, false, err
			}
			return Answer{Output: a.Output, Index: a.Index, Score: a.Conf, Kind: "confidence"}, true, nil
		}
	case ClassSProjector:
		it := e.p.EnumerateImax(e.m)
		e.topNext = func(ctx context.Context) (Answer, bool, error) {
			a, ok, err := it.NextCtx(ctx)
			if err != nil || !ok {
				return Answer{}, false, err
			}
			return Answer{Output: a.Output, Score: a.Imax, Kind: "I_max"}, true, nil
		}
	default:
		// An enumerator carried across an append by ExtendValidated is
		// the previous drain's resolved tree, re-priced against the grown
		// sequence. Otherwise an append-extendable engine resolves
		// unpruned and retains the tree so the next ExtendValidated can
		// carry it, and a one-shot engine prunes from kernel.BoundsMinN
		// positions on (ranked.NewEnumerator).
		if e.topEnum == nil {
			opts := []ranked.Option{ranked.WithTables(e.baseNT)}
			if e.rankedExtendable {
				opts = append(opts, ranked.WithExtendable())
			}
			e.topEnum = ranked.NewEnumerator(e.pt, e.m, opts...)
		}
		it := e.topEnum
		e.topNext = func(ctx context.Context) (Answer, bool, error) {
			a, ok, err := it.NextCtx(ctx)
			if err != nil || !ok {
				return Answer{}, false, err
			}
			return Answer{Output: a.Output, Score: math.Exp(a.LogEmax), Kind: "E_max"}, true, nil
		}
	}
	return nil
}

// TopK returns the k best-ranked answers under the plan's ranking.
// Answers already enumerated by earlier calls are served from the memo;
// only the tail beyond the longest previous prefix costs enumeration
// work. Safe for concurrent use.
func (e *Engine) TopK(k int) []Answer {
	out, _ := e.TopKCtx(context.Background(), k)
	return out
}

// TopKCtx is TopK with cancellation. On a context error it returns the
// already-proven ranked prefix (up to k answers, possibly empty)
// together with ctx.Err(): the prefix is exactly the first answers of
// the uncancelled enumeration — never a reordering — and the underlying
// iterator is left resumable, so a later call with a live context
// extends the same sequence.
func (e *Engine) TopKCtx(ctx context.Context, k int) ([]Answer, error) {
	if k <= 0 {
		return nil, ctx.Err()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// A context that is already dead behaves like a cancellation after
	// zero additional work: the memoized prefix is returned with the
	// error, even when the cache could satisfy k on its own.
	iterErr := ctx.Err()
	if iterErr == nil && e.topNext == nil {
		if err := e.initTopCtx(ctx); err != nil {
			return nil, err
		}
	}
	for iterErr == nil && len(e.topCache) < k && !e.topDone {
		a, ok, err := e.topNext(ctx)
		if err != nil {
			iterErr = err
			break
		}
		if !ok {
			e.topDone = true
			break
		}
		e.topCache = append(e.topCache, a)
	}
	n := min(k, len(e.topCache))
	if n == 0 {
		return nil, iterErr
	}
	out := make([]Answer, n)
	copy(out, e.topCache[:n])
	return out, iterErr
}

// Enumerate returns up to limit answers in unranked order (Theorem 4.1);
// limit ≤ 0 means all. Works for every class. Like TopK, the enumerated
// prefix is memoized across calls, and the method is safe for concurrent
// use.
func (e *Engine) Enumerate(limit int) [][]automata.Symbol {
	out, _ := e.EnumerateCtx(context.Background(), limit)
	return out
}

// EnumerateCtx is Enumerate with cancellation, polled inside every
// nonemptiness probe of the prefix-tree traversal. On a context error it
// returns the answers enumerated so far with ctx.Err(); the traversal
// stays resumable, so a later call with a live context continues the
// same depth-first order without skipping or repeating answers.
func (e *Engine) EnumerateCtx(ctx context.Context, limit int) ([][]automata.Symbol, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// As in TopKCtx: a dead context short-circuits to the memoized
	// prefix plus the context error, regardless of cache state.
	iterErr := ctx.Err()
	if iterErr == nil && e.enumIter == nil && !e.enumDone {
		e.enumIter = enum.NewEnumeratorWithTables(e.pt, e.m, e.baseNT)
	}
	for iterErr == nil && (limit <= 0 || len(e.enumCache) < limit) && !e.enumDone {
		o, ok, err := e.enumIter.NextCtx(ctx)
		if err != nil {
			iterErr = err
			break
		}
		if !ok {
			e.enumDone = true
			break
		}
		e.enumCache = append(e.enumCache, o)
	}
	n := len(e.enumCache)
	if limit > 0 && limit < n {
		n = limit
	}
	if n == 0 {
		return nil, iterErr
	}
	out := make([][]automata.Symbol, n)
	copy(out, e.enumCache[:n])
	return out, iterErr
}

// IsAnswer reports whether o is an answer (nonzero confidence). The
// reachability probe runs over the base tables built at prepare time;
// the tables are read-only, so concurrent calls are safe.
func (e *Engine) IsAnswer(o []automata.Symbol) bool {
	c := transducer.Constraint{Prefix: o, Mode: transducer.ExactOnly}
	found, _ := kernel.ConstrainedNonEmptyCtx(context.Background(), e.baseNT, e.m.View(), c, nil)
	return found
}

// ScoredAnswer is a ranked answer annotated with its exact confidence
// (the paper's Section 2.3.1: "an efficient procedure for computing the
// confidence of an answer is still required if the user desires the
// confidence to be given along with each answer").
type ScoredAnswer struct {
	Answer
	// Conf is the exact confidence, when the class admits tractable
	// confidence computation; NaN for the FP^#P-complete class.
	Conf float64
}

// TopKWithConfidence returns the k best-ranked answers annotated with
// exact confidences where Table 2 makes that tractable. For indexed
// s-projectors the ranking score already is the confidence.
func (e *Engine) TopKWithConfidence(k int) []ScoredAnswer {
	out, _ := e.TopKWithConfidenceCtx(context.Background(), k)
	return out
}

// TopKWithConfidenceCtx is TopKWithConfidence with cancellation of both
// the ranked enumeration and the per-answer confidence DPs. On a context
// error it returns the fully-annotated prefix built so far with
// ctx.Err().
func (e *Engine) TopKWithConfidenceCtx(ctx context.Context, k int) ([]ScoredAnswer, error) {
	top, topErr := e.TopKCtx(ctx, k)
	var out []ScoredAnswer
	for _, a := range top {
		sa := ScoredAnswer{Answer: a, Conf: math.NaN()}
		switch e.plan.Class {
		case ClassIndexedSProjector:
			sa.Conf = a.Score
		case ClassGeneral:
			// FP^#P-complete: leave NaN.
		default:
			c, err := e.ConfidenceCtx(ctx, a.Output, a.Index)
			if err != nil && ctx.Err() != nil {
				return out, err
			}
			if err == nil {
				sa.Conf = c
			}
		}
		out = append(out, sa)
	}
	return out, topErr
}
