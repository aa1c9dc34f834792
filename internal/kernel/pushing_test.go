// Differential tests for the weight-pushed bounded kernels: every
// bounded entry point (ConstrainedViterbi with bounds, the bounded
// checkpoint/resume pair, ConstrainedNonEmptyBoundedCtx) must be
// bit-identical to its
// exhaustive (nil-bounds) counterpart on randomized
// instances — same answers, same evidence, same Float64bits scores,
// same tie-breaks — because the serving stack runs them by default.
package kernel_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// randomInstance draws one (tables, view, sequence, transducer) tuple
// from the same family as the exhaustive kernel tests.
func randomInstance(rng *rand.Rand) (*kernel.NFATables, *kernel.SeqView, *markov.Sequence, *transducer.Transducer) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	m := markov.Random(in, 2+rng.Intn(5), 0.7, rng)
	tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
	return kernel.NewNFATables(tr), m.View(), m, tr
}

// TestConstrainedViterbiBoundedDifferential: for a mixed bag of
// constraints (Lawler children, random prefixes/modes/forbidden sets,
// unsatisfiable ones), the bounded constrained kernel must agree with
// the exhaustive constrained kernel on every return value.
func TestConstrainedViterbiBoundedDifferential(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(22000 + trial)))
		nt, v, m, tr := randomInstance(rng)
		b := kernel.NewBounds(nt, v)
		out := tr.Out
		for _, c := range randomConstraints(answers(tr, m), out, rng) {
			go_, gn, gs, glp, gok := kernel.ConstrainedViterbi(nt, v, c, b, nil)
			wo, wn, ws, wlp, wok := kernel.ConstrainedViterbi(nt, v, c, nil, nil)
			if gok != wok {
				t.Fatalf("trial %d %v: bounded ok=%v exhaustive ok=%v", trial, c, gok, wok)
			}
			if !gok {
				continue
			}
			if math.Float64bits(glp) != math.Float64bits(wlp) {
				t.Fatalf("trial %d %v: bounded score %v != exhaustive %v", trial, c, glp, wlp)
			}
			if automata.StringKey(go_) != automata.StringKey(wo) {
				t.Fatalf("trial %d %v: bounded answer %v != exhaustive %v", trial, c, go_, wo)
			}
			if automata.StringKey(gn) != automata.StringKey(wn) {
				t.Fatalf("trial %d %v: bounded evidence %v != exhaustive %v", trial, c, gn, wn)
			}
			for i := range gs {
				if gs[i] != ws[i] {
					t.Fatalf("trial %d %v: bounded states %v != exhaustive %v", trial, c, gs, ws)
				}
			}
		}
	}
}

// TestResumeBoundedDifferential: building a checkpoint through the
// bounded (pot-gated) sweep and resuming each Lawler child through the
// bounded two-phase resume must be bit-identical to the exhaustive
// checkpoint/resume pair — the invariant that lets the enumerator mix
// checkpoints across kernel flavours.
func TestResumeBoundedDifferential(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(23000 + trial)))
		nt, v, m, tr := randomInstance(rng)
		b := kernel.NewBounds(nt, v)
		for _, o := range answers(tr, m) {
			bck := kernel.NewLazyCheckpoint(nt, v, o, b)
			eck := kernel.NewLazyCheckpoint(nt, v, o, nil)
			for _, c := range transducer.Unconstrained().Children(o) {
				if !automata.HasPrefix(o, c.Prefix) {
					continue
				}
				go_, gn, gs, glp, gok, err := kernel.ResumeConstrainedBoundedCtx(ctx, nt, v, bck, c, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				wo, wn, ws, wlp, wok, _ := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, eck, c, nil, nil)
				if gok != wok {
					t.Fatalf("trial %d %v: bounded ok=%v exhaustive ok=%v", trial, c, gok, wok)
				}
				if !gok {
					continue
				}
				if math.Float64bits(glp) != math.Float64bits(wlp) {
					t.Fatalf("trial %d %v: bounded resume score %v != exhaustive %v", trial, c, glp, wlp)
				}
				if automata.StringKey(go_) != automata.StringKey(wo) || automata.StringKey(gn) != automata.StringKey(wn) {
					t.Fatalf("trial %d %v: bounded resume answer/evidence differ", trial, c)
				}
				for i := range gs {
					if gs[i] != ws[i] {
						t.Fatalf("trial %d %v: bounded resume states differ", trial, c)
					}
				}
			}
		}
	}
}

// TestConstrainedNonEmptyBoundedDifferential: the pot-gated boolean
// reachability probe must agree with the ungated one on every
// constraint, satisfiable or not.
func TestConstrainedNonEmptyBoundedDifferential(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(24000 + trial)))
		nt, v, m, tr := randomInstance(rng)
		b := kernel.NewBounds(nt, v)
		for _, c := range randomConstraints(answers(tr, m), tr.Out, rng) {
			got, err := kernel.ConstrainedNonEmptyBoundedCtx(ctx, nt, v, c, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := kernel.ConstrainedNonEmpty(nt, v, c, nil); got != want {
				t.Fatalf("trial %d %v: bounded nonempty=%v, exhaustive %v", trial, c, got, want)
			}
		}
	}
}

// TestBoundsAdmissibility: the potentials are exact upper bounds — the
// unconstrained optimum equals the best initial-cell score plus its
// potential, which an ExactOnly constraint on the optimal answer must
// also attain. A potential that undercut the true completion weight
// would make the bounded kernel prune the optimum itself, so this is
// checked through the public kernels: the bounded run over a view whose
// optimum is known must find exactly that optimum.
func TestBoundsAdmissibility(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(25000 + trial)))
		nt, v, _, _ := randomInstance(rng)
		b := kernel.NewBounds(nt, v)
		_, _, wlp, wok := kernel.ViterbiRun(nt, v, nil)
		if !wok {
			continue
		}
		// The unconstrained constraint admits everything: the bounded
		// constrained kernel with a fresh incumbent must still reach the
		// global optimum, which it can only do if no admissible cell on
		// the optimal path was pruned.
		_, _, _, glp, gok := kernel.ConstrainedViterbi(nt, v, transducer.Unconstrained(), b, nil)
		if !gok || math.Float64bits(glp) != math.Float64bits(wlp) {
			t.Fatalf("trial %d: bounded unconstrained optimum %v (ok=%v), want %v", trial, glp, gok, wlp)
		}
	}
}

// TestNewBoundsIntoRecycles: rebuilding bounds into recycled storage
// (the sweeper's per-window path) must behave identically to a fresh
// NewBounds for the new view, even when shapes shrink or grow.
func TestNewBoundsIntoRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(26000))
	var recycled *kernel.Bounds
	for trial := 0; trial < 20; trial++ {
		nt, v, m, tr := randomInstance(rng)
		recycled = kernel.NewBoundsInto(recycled, nt, v)
		fresh := kernel.NewBounds(nt, v)
		for _, c := range randomConstraints(answers(tr, m), tr.Out, rng)[:4] {
			go_, _, _, glp, gok := kernel.ConstrainedViterbi(nt, v, c, recycled, nil)
			wo, _, _, wlp, wok := kernel.ConstrainedViterbi(nt, v, c, fresh, nil)
			if gok != wok || (gok && (math.Float64bits(glp) != math.Float64bits(wlp) ||
				automata.StringKey(go_) != automata.StringKey(wo))) {
				t.Fatalf("trial %d %v: recycled bounds disagree with fresh", trial, c)
			}
		}
	}
}

// TestPruneStatsCounters: bounded calls accumulate resolves and cell
// counters; a nil Bounds reports zeros and stays usable.
func TestPruneStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(27000))
	visited := false
	for trial := 0; trial < 20; trial++ {
		nt, v, _, _ := randomInstance(rng)
		b := kernel.NewBounds(nt, v)
		if before := b.Stats(); before.Resolves != 0 {
			t.Fatalf("fresh bounds report %d resolves", before.Resolves)
		}
		_, _, _, _, ok := kernel.ConstrainedViterbi(nt, v, transducer.Unconstrained(), b, nil)
		after := b.Stats()
		if after.Resolves != 1 {
			t.Fatalf("one bounded call recorded %d resolves", after.Resolves)
		}
		if ok && after.VisitedCells > 0 {
			visited = true
		}
	}
	if !visited {
		t.Fatal("no bounded call over 20 instances visited any cells")
	}
	var nilB *kernel.Bounds
	if nilB.Stats() != (kernel.PruneStats{}) {
		t.Fatal("nil Bounds must report zero stats")
	}
}
