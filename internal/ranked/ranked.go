// Package ranked implements the ranked-enumeration results of Section 4.2
// of Kimelfeld & Ré (PODS 2010):
//
//   - TopEmax finds an answer maximizing E_max (the probability of the
//     best evidence) under an output prefix constraint, by the
//     constraint-incremental Viterbi kernel: the constraint's zone
//     tracker is composed with the base transducer tables on the fly
//     (kernel.ConstrainedViterbi), with no per-call product transducer.
//     Emax and BestEvidence are its exact-output forms.
//
//   - Enumerator yields A^ω(μ) in decreasing E_max with polynomial delay
//     (Theorem 4.3), via the generic Lawler–Murty core (internal/lawler):
//     the answer space is recursively partitioned with prefix
//     constraints, and each part's top answer is resolved lazily, one at
//     a time, against its parent's checkpoint. An Enumerator is the one
//     unit of ranked state for a (transducer, sequence) pair: the base
//     tables, the sequence's view, the weight-pushed potentials, a
//     bounded LRU of lazy prefix-checkpoint handles and the Lawler tree.
//     It prunes exactly when it has potentials: computed on first use by
//     default, supplied by WithBounds(b), none after WithBounds(nil) (the
//     exhaustive sweep) or WithExtendable. ExtendEnumerator carries an
//     extendable one across an append. The pre-incremental product path
//     survives in the tests (legacy_test.go) as the differential
//     reference and benchmark baseline.
//
//   - Sweeper is the lean per-window form for sliding-window sweeps.
//
// An Enumerator is not safe for concurrent use; neither is a Sweeper.
//
// Probabilities are handled in log space, so long Markov sequences do not
// underflow (see DESIGN.md ablation A3).
package ranked

import (
	"context"
	"math"
	"slices"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/lawler"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// TopEmax returns an answer o of the transducer over μ with maximal
// E_max(o) among the answers satisfying the constraint, together with
// log E_max(o). ok is false when no answer satisfies the constraint.
//
// Correctness: the maximum-probability accepting evidence s* yields an
// answer o* with E_max(o*) = Pr(s*) ≥ E_max(o) for every other answer o,
// and restricting the DP to constraint-admissible outputs preserves this
// argument within the constrained answer set.
//
// Base tables are built per call.
func TopEmax(t *transducer.Transducer, m *markov.Sequence, c transducer.Constraint) (o []automata.Symbol, logE float64, ok bool) {
	o, _, _, logE, ok = kernel.ConstrainedViterbi(kernel.NewNFATables(t), m.View(), c, nil, nil)
	return o, logE, ok
}

// BestEvidence returns the maximum-probability possible world of μ that is
// transduced into answer o, together with its log probability — i.e. a
// witness of E_max(o) (Example 4.2). ok is false when o is not an answer.
func BestEvidence(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) (s []automata.Symbol, logE float64, ok bool) {
	c := transducer.Constraint{Prefix: o, Mode: transducer.ExactOnly}
	_, nodes, _, lp, ok := kernel.ConstrainedViterbi(kernel.NewNFATables(t), m.View(), c, nil, nil)
	return nodes, lp, ok
}

// Answer is an enumerated answer with its E_max score (in log space).
type Answer struct {
	Output  []automata.Symbol
	LogEmax float64
}

// resolution is the Lawler payload of a ranked enumeration: the answer a
// resolve found and, in extendable mode, rs, the capture of that resolve
// (kept also when it found the region empty). The tree owns each
// capture by pointer: a carried region's next resolve continues from
// it, and the cross-append reseed prices the region, and the children
// of the answer it emitted, from it. Answers handed to callers drop rs.
type resolution struct {
	Answer
	rs *kernel.ResumeState
}

// Enumerator yields A^ω(μ) in decreasing E_max with polynomial delay
// (Theorem 4.3). Create with NewEnumerator and drain with Next. Each
// subproblem is resolved lazily against its parent answer's prefix
// checkpoint. Not safe for concurrent use.
type Enumerator struct {
	inner *lawler.Enumerator[resolution]
	nt    *kernel.NFATables
	v     *kernel.SeqView
	cache ckptCache

	// bounds are the weight-pushed potentials driving checkpoint gating
	// and resume pruning; nil for the exhaustive sweep (WithBounds(nil))
	// and in extendable mode. Without WithBounds the enumerator computes
	// its own on first use (lazyBounds), so the backward sweep counts
	// towards its first answer.
	bounds     *kernel.Bounds
	lazyBounds bool
	extendable bool

	// carry is the reseed's working storage — its on-demand potentials
	// and price memos — recycled along the extension chain (see
	// carryScratch); nil until the enumerator's first carry, or its
	// predecessor's, takes it.
	carry *carryScratch

	// Cross-append reuse counters (see ExtendStats), cumulative along the
	// extension chain and fixed once the carry has built the enumerator.
	reused, reseeded, handlesSkipped uint64
}

// NewEnumerator prepares the decreasing-E_max enumeration of the answers
// of t over m. Options: WithTables, WithBounds, WithExtendable.
func NewEnumerator(t *transducer.Transducer, m *markov.Sequence, opts ...Option) *Enumerator {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	e := &Enumerator{nt: cfg.nt, v: m.View(), extendable: cfg.extendable}
	if e.nt == nil {
		e.nt = kernel.NewNFATables(t)
	}
	ckCap := defaultCheckpointCap
	switch {
	case cfg.extendable:
		ckCap = extendableCheckpointCap
	case cfg.boundsSet:
		e.bounds = cfg.bounds
	default:
		e.lazyBounds = true
	}
	e.cache.init(ckCap, 0)
	e.inner = lawler.New(lawlerConfig(e.resolveAnswer))
	return e
}

// resolveFunc solves one Lawler subproblem c against the prefix
// checkpoint aligned to align (which extends c.Prefix), continuing
// prior, the capture of the region's previous resolve (nil if none).
type resolveFunc func(ctx context.Context, c transducer.Constraint, align []automata.Symbol, prior *kernel.ResumeState) (resolution, bool, error)

// lawlerConfig is the Lawler–Murty wiring shared by NewEnumerator, the
// cross-append carry (ExtendEnumerator) and the per-window Sweeper:
// resolve against the parent answer's prefix checkpoint, partition with
// Constraint.Children, and break exact ties by one rule, so every path
// emits the same sequence.
func lawlerConfig(resolve resolveFunc) lawler.Config[resolution] {
	return lawler.Config[resolution]{
		Root: transducer.Unconstrained(),
		Resolve: func(ctx context.Context, c transducer.Constraint, parent resolution, root bool, prior resolution) (resolution, float64, bool, error) {
			// Children of a printed answer share its checkpoint: every
			// child prefix is a prefix of the parent's output.
			align := parent.Output
			if root {
				align = c.Prefix
			}
			r, ok, err := resolve(ctx, c, align, prior.rs)
			return r, r.LogEmax, ok, err
		},
		Children: func(c transducer.Constraint, top resolution) []transducer.Constraint {
			return c.Children(top.Output)
		},
		// Exact E_max ties emit in lexicographic output order — a
		// construction-independent rule, so a reseeded post-append
		// enumerator (whose queue insertion order necessarily differs)
		// emits the same sequence as a from-scratch one. Distinct queue
		// items hold disjoint regions, so resolved tops never compare
		// equal and the order is total.
		Tie: func(a, b resolution) int {
			return slices.Compare(a.Output, b.Output)
		},
		Floor: outputFloor,
	}
}

// outputFloor is the lexicographic floor of region c's outputs: each
// extends c.Prefix, strictly in an ExtensionsOnly region. On an exactly
// tied score class (the flat landscapes of the hardness instances) it
// lets the tree emit a tied answer without first resolving every
// bound-tied child whose outputs all sort after it.
func outputFloor(c transducer.Constraint) (resolution, bool) {
	return resolution{Answer: Answer{Output: c.Prefix}}, c.Mode == transducer.ExtensionsOnly
}

// ExtendStats returns the cross-append reuse counters: answers carried
// as exact singletons, frontier subproblems re-seeded with fresh bounds,
// and carried checkpoint handles that never materialized. Cumulative
// across carries; zero for an enumeration that never crossed an append.
func (e *Enumerator) ExtendStats() (reused, reseeded, handlesSkipped uint64) {
	return e.reused, e.reseeded, e.handlesSkipped
}

// PruneStats reports the pruning-efficacy counters accumulated by the
// enumerator's kernel calls: those of its potentials, so all zero while
// it has none (WithBounds(nil), extendable mode, no resolve yet). Shared
// potentials (WithBounds) report every call made with them.
func (e *Enumerator) PruneStats() kernel.PruneStats { return e.bounds.Stats() }

// Next returns the next answer in decreasing E_max, or ok=false when all
// answers have been enumerated. Each answer is produced exactly once: the
// Lawler children of a popped constraint partition its remaining answers.
func (e *Enumerator) Next() (Answer, bool) {
	r, _, ok := e.inner.Next()
	return r.Answer, ok
}

// NextCtx is Next with cancellation: a non-nil error (ctx.Err()) means
// no answer was consumed — the answers already emitted stand, and a
// later call with a live context resumes the ranked order exactly where
// it stopped.
func (e *Enumerator) NextCtx(ctx context.Context) (Answer, bool, error) {
	r, _, ok, err := e.inner.NextCtx(ctx)
	return r.Answer, ok, err
}

// Emax computes E_max(o) = max{Pr(s) : s →[A^ω]→ o} in log space, using
// the exact-output constraint and the constrained Viterbi kernel. It
// returns -Inf when o is not an answer.
func Emax(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) float64 {
	_, lp, ok := TopEmax(t, m, transducer.Constraint{Prefix: o, Mode: transducer.ExactOnly})
	if !ok {
		return math.Inf(-1)
	}
	return lp
}
