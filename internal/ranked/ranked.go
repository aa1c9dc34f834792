// Package ranked implements the ranked-enumeration results of Section 4.2
// of Kimelfeld & Ré (PODS 2010):
//
//   - TopEmax finds an answer maximizing E_max (the probability of the
//     best evidence) under an output prefix constraint, by the
//     constraint-incremental Viterbi kernel: the constraint's zone
//     tracker is composed with the base transducer tables on the fly
//     (kernel.ConstrainedViterbi), with no per-call product transducer.
//
//   - Evaluator caches the base tables, the sequence view, and a bounded
//     LRU of lazy prefix-checkpoint handles for one (transducer,
//     sequence) pair, so repeated per-answer calls (Emax, BestEvidence)
//     and the Lawler children of each printed answer reuse the
//     shared-prefix DP work. It gates checkpoints and prunes resolves
//     with weight-pushed potentials exactly when it has them: computed
//     on first use by default, supplied by WithBounds(b), none after
//     WithBounds(nil) (the exhaustive sweep) or WithExtendable.
//
//   - Enumerator yields A^ω(μ) in decreasing E_max with polynomial delay
//     (Theorem 4.3), via the generic Lawler–Murty core (internal/lawler):
//     the answer space is recursively partitioned with prefix
//     constraints, and each part's top answer is resolved lazily, one at
//     a time, against its parent's checkpoint. The pre-incremental
//     product path survives in the tests (legacy_test.go) as the
//     differential reference and benchmark baseline.
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
// This is the one-shot form (base tables are built per call); use an
// Evaluator to amortize tables and checkpoints across calls.
func TopEmax(t *transducer.Transducer, m *markov.Sequence, c transducer.Constraint) (o []automata.Symbol, logE float64, ok bool) {
	o, _, _, logE, ok = kernel.ConstrainedViterbi(kernel.NewNFATables(t), m.View(), c, nil, nil)
	return o, logE, ok
}

// BestEvidence returns the maximum-probability possible world of μ that is
// transduced into answer o, together with its log probability — i.e. a
// witness of E_max(o) (Example 4.2). ok is false when o is not an answer.
//
// One-shot form; Evaluator.BestEvidence amortizes the base tables and
// reuses the enumerator's prefix checkpoints.
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

// Enumerator yields A^ω(μ) in decreasing E_max with polynomial delay
// (Theorem 4.3). Create with NewEnumerator and drain with Next. Each
// subproblem is resolved lazily against its parent answer's prefix
// checkpoint. Not safe for concurrent use.
type Enumerator struct {
	inner *lawler.Enumerator[Answer]
	ev    *Evaluator
}

// NewEnumerator prepares the decreasing-E_max enumeration of the answers
// of t over m. Options: WithTables, WithBounds, WithExtendable.
func NewEnumerator(t *transducer.Transducer, m *markov.Sequence, opts ...Option) *Enumerator {
	return NewEvaluator(t, m, opts...).Enumerate()
}

// resolveFunc solves one Lawler subproblem c against the prefix
// checkpoint aligned to align (which extends c.Prefix).
type resolveFunc func(ctx context.Context, c transducer.Constraint, align []automata.Symbol) (Answer, bool, error)

// lawlerConfig is the Lawler–Murty wiring shared by Enumerate, the
// cross-append reseed (ExtendEnumerator) and the per-window Sweeper:
// resolve against the parent answer's prefix checkpoint, partition with
// Constraint.Children, and break exact ties by one rule, so every path
// emits the same sequence.
func lawlerConfig(resolve resolveFunc) lawler.Config[Answer] {
	return lawler.Config[Answer]{
		Root: transducer.Unconstrained(),
		Resolve: func(ctx context.Context, c transducer.Constraint, parent Answer, root bool) (Answer, float64, bool, error) {
			// Children of a printed answer share its checkpoint: every
			// child prefix is a prefix of the parent's output.
			align := parent.Output
			if root {
				align = c.Prefix
			}
			a, ok, err := resolve(ctx, c, align)
			return a, a.LogEmax, ok, err
		},
		Children: func(c transducer.Constraint, top Answer) []transducer.Constraint {
			return c.Children(top.Output)
		},
		// Exact E_max ties emit in lexicographic output order — a
		// construction-independent rule, so a reseeded post-append
		// enumerator (whose queue insertion order necessarily differs)
		// emits the same sequence as a from-scratch one. Distinct queue
		// items hold disjoint regions, so resolved tops never compare
		// equal and the order is total.
		Tie: func(a, b Answer) int {
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
func outputFloor(c transducer.Constraint) (Answer, bool) {
	return Answer{Output: c.Prefix}, c.Mode == transducer.ExtensionsOnly
}

// Enumerate starts a decreasing-E_max enumeration sharing this
// evaluator's tables and checkpoint cache.
func (ev *Evaluator) Enumerate() *Enumerator {
	return &Enumerator{inner: lawler.New(lawlerConfig(ev.resolveAnswer)), ev: ev}
}

// Evaluator returns the evaluator backing this enumeration.
func (e *Enumerator) Evaluator() *Evaluator { return e.ev }

// ExtendStats reports the backing evaluator's cross-append reuse
// counters (zero for enumerations that never crossed an append).
func (e *Enumerator) ExtendStats() (reused, reseeded, handlesSkipped uint64) {
	if e.ev == nil {
		return 0, 0, 0
	}
	return e.ev.ExtendStats()
}

// Next returns the next answer in decreasing E_max, or ok=false when all
// answers have been enumerated. Each answer is produced exactly once: the
// Lawler children of a popped constraint partition its remaining answers.
func (e *Enumerator) Next() (Answer, bool) {
	a, _, ok := e.inner.Next()
	return a, ok
}

// NextCtx is Next with cancellation: a non-nil error (ctx.Err()) means
// no answer was consumed — the answers already emitted stand, and a
// later call with a live context resumes the ranked order exactly where
// it stopped.
func (e *Enumerator) NextCtx(ctx context.Context) (Answer, bool, error) {
	a, _, ok, err := e.inner.NextCtx(ctx)
	return a, ok, err
}

// Emax computes E_max(o) = max{Pr(s) : s →[A^ω]→ o} in log space, using
// the exact-output constraint and the constrained Viterbi kernel. It
// returns -Inf when o is not an answer. One-shot form; see
// Evaluator.Emax for the amortized path.
func Emax(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) float64 {
	_, lp, ok := TopEmax(t, m, transducer.Constraint{Prefix: o, Mode: transducer.ExactOnly})
	if !ok {
		return math.Inf(-1)
	}
	return lp
}
