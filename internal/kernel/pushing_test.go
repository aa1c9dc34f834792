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
	"slices"
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
				go_, gn, gs, glp, gok, _, err := kernel.ResumeEvidence(ctx, nt, v, bck, c, b, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				wo, wn, ws, wlp, wok, _, _ := kernel.ResumeEvidence(context.Background(), nt, v, eck, c, nil, nil, nil, nil)
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

// TestNewBoundsIntoGrowsGeometrically: the cross-append ranked reseed
// rebuilds its bounds into recycled storage (NewLazyBoundsInto, which
// sizes the array as NewBoundsInto does) over a view one position
// longer at every append. The potential array must grow geometrically
// — 25 one-position growths from n = 200 reallocate at most twice — and
// every rebuild must equal a fresh NewBounds bit for bit. The instance
// has 12 nodes and 8 states, so the array (150 KB at n = 200) is far
// larger than the rounding of its allocation size, which alone would
// absorb a few rows of growth.
func TestNewBoundsIntoGrowsGeometrically(t *testing.T) {
	rng := rand.New(rand.NewSource(26100))
	in := automata.MustAlphabet("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")
	out := automata.MustAlphabet("x", "y")
	full := markov.Random(in, 225, 0.3, rng)
	nt := kernel.NewNFATables(randomVarNFATransducer(in, out, 8, rng))
	grown := full.Window(1, 200)
	b := kernel.NewBounds(nt, grown.View())
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	reallocs := 0
	for grown.Len() < full.Len() {
		var err error
		if grown, err = grown.Extended([][][]float64{full.TransAt(grown.Len())}); err != nil {
			t.Fatal(err)
		}
		v := grown.View()
		before := &b.Row(0)[0]
		b = kernel.NewBoundsInto(b, nt, v)
		if &b.Row(0)[0] != before {
			reallocs++
		}
		fresh := kernel.NewBounds(nt, v)
		for i := 0; i < v.N; i++ {
			if !slices.EqualFunc(b.Row(i), fresh.Row(i), sameBits) {
				t.Fatalf("n=%d: recycled row %d differs from a fresh sweep", v.N, i)
			}
		}
	}
	if reallocs > 2 {
		t.Fatalf("25 one-position growths from n=200 reallocated the potentials %d times, want at most 2", reallocs)
	}
}

// refPotentials is the backward recurrence written out independently of
// the kernel's loop order: row i of cell (x, q) is the best, over every
// chain step x→y and transducer edge q→q' reading y, of the step's log
// weight plus row i+1 of (y, q'). A max is exact, so any evaluation
// order gives the same bits.
func refPotentials(nt *kernel.NFATables, v *kernel.SeqView) [][]float64 {
	neg := math.Inf(-1)
	rows := make([][]float64, v.N)
	rows[v.N-1] = make([]float64, v.K*nt.States)
	for xq := range rows[v.N-1] {
		if rows[v.N-1][xq] = neg; nt.Accept[xq%nt.States] {
			rows[v.N-1][xq] = 0
		}
	}
	for i := v.N - 2; i >= 0; i-- {
		row := make([]float64, v.K*nt.States)
		for xq := range row {
			row[xq] = neg
		}
		st := &v.Steps[i]
		for q := 0; q < nt.States; q++ {
			for x := 0; x < v.K; x++ {
				for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
					y := int(st.Col[e])
					lo, hi := nt.Edges(q, y)
					for t := lo; t < hi; t++ {
						if c := st.LogVal[e] + rows[i+1][y*nt.States+int(nt.Succ[t])]; c > row[x*nt.States+q] {
							row[x*nt.States+q] = c
						}
					}
				}
			}
		}
		rows[i] = row
	}
	return rows
}

// TestLazyBoundsRowsMatchEager: rows read through Row from
// NewLazyBoundsInto, in any order — jumps down and back up, repeats —
// equal NewBoundsInto's rows bit for bit, and the lazy bounds sweep no
// row below the lowest one read. NewBoundsInto's rows equal the
// independent recurrence. Both constructors recycle one another's
// storage across views of different shapes.
func TestLazyBoundsRowsMatchEager(t *testing.T) {
	rng := rand.New(rand.NewSource(26200))
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	in := automata.MustAlphabet("a", "b", "c", "d", "e")
	out := automata.MustAlphabet("x", "y")
	var lazy, eager *kernel.Bounds
	for trial := 0; trial < 40; trial++ {
		var nt *kernel.NFATables
		var v *kernel.SeqView
		if trial%2 == 0 {
			nt, v, _, _ = randomInstance(rng)
		} else {
			m := markov.Random(in, 20+rng.Intn(60), 0.4, rng)
			nt, v = kernel.NewNFATables(randomVarNFATransducer(in, out, 1+rng.Intn(5), rng)), m.View()
		}
		ref := refPotentials(nt, v)
		if trial%3 == 0 {
			eager, lazy = lazy, eager // hand each constructor the other's storage
		}
		eager = kernel.NewBoundsInto(eager, nt, v)
		if eager.SweptTo() != 0 {
			t.Fatalf("trial %d: NewBoundsInto filled rows from %d, want 0", trial, eager.SweptTo())
		}
		for i := range ref {
			if !slices.EqualFunc(eager.Row(i), ref[i], sameBits) {
				t.Fatalf("trial %d n=%d: NewBoundsInto row %d differs from the reference recurrence", trial, v.N, i)
			}
		}
		lazy = kernel.NewLazyBoundsInto(lazy, nt, v)
		lowest := v.N - 1
		for r := 0; r < 3*v.N; r++ {
			var i int
			switch rng.Intn(4) {
			case 0: // a repeat of the lowest row read
				i = lowest
			case 1: // one row below it
				i = max(lowest-1, 0)
			default: // anywhere, above or below
				i = rng.Intn(v.N)
			}
			if !slices.EqualFunc(lazy.Row(i), eager.Row(i), sameBits) {
				t.Fatalf("trial %d n=%d: lazy row %d differs from NewBoundsInto's", trial, v.N, i)
			}
			lowest = min(lowest, i)
			if lazy.SweptTo() != lowest {
				t.Fatalf("trial %d n=%d: lazy bounds swept to row %d, lowest read %d", trial, v.N, lazy.SweptTo(), lowest)
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
