// Differential tests for lazy checkpoint materialization at the kernel
// level: a lazy handle must materialize nothing until a resume touches
// it, the DP it then builds must be the one a handle materialized up
// front holds (bit-identical resumes), a recycled checkpoint must refuse
// to serve, and steady-state resumes through a warm scratch must not
// allocate beyond the returned answer slices.
package kernel_test

import (
	"context"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// TestLazyCheckpointMatchesEager is the kernel half of the lazy
// determinism contract: for every answer o, resuming each Lawler child
// through a lazy handle is bit-identical (answer bytes, evidence,
// states, score) to resuming through a checkpoint materialized before
// its first resume, the handle stays empty until the first resume, and
// one touch materializes exactly the layers the up-front build relaxed.
func TestLazyCheckpointMatchesEager(t *testing.T) {
	ctx := context.Background()
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(16000 + trial)))
		m := markov.Random(in, 2+rng.Intn(4), 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		v := m.View()
		b := kernel.NewBounds(nt, v)
		for _, o := range answers(tr, m) {
			pre, err := kernel.MaterializedCheckpoint(ctx, nt, v, o, nil)
			if err != nil {
				t.Fatalf("trial %d: up-front build: %v", trial, err)
			}
			lazy := kernel.NewLazyCheckpoint(nt, v, o)
			if got := lazy.MaterializedLayers(); got != 0 {
				t.Fatalf("trial %d: untouched lazy handle materialized %d layers", trial, got)
			}
			if got := lazy.Cells(); got != 0 {
				t.Fatalf("trial %d: untouched lazy handle holds %d cells", trial, got)
			}
			for _, c := range transducer.Unconstrained().Children(o) {
				lo, ln, ls, llp, lok, _, err := kernel.ResumeEvidence(ctx, nt, v, lazy, c, b, nil, nil, nil)
				if err != nil {
					t.Fatalf("trial %d %v: lazy resume: %v", trial, c, err)
				}
				eo, en, es, elp, eok, _, err := kernel.ResumeEvidence(ctx, nt, v, pre, c, b, nil, nil, nil)
				if err != nil {
					t.Fatalf("trial %d %v: pre-materialized resume: %v", trial, c, err)
				}
				if lok != eok {
					t.Fatalf("trial %d %v: lazy ok=%v pre-materialized ok=%v", trial, c, lok, eok)
				}
				if !lok {
					continue
				}
				if llp != elp {
					t.Fatalf("trial %d %v: lazy score %v != pre-materialized %v (must be bit-identical)", trial, c, llp, elp)
				}
				if automata.StringKey(lo) != automata.StringKey(eo) {
					t.Fatalf("trial %d %v: lazy answer %v != pre-materialized %v", trial, c, lo, eo)
				}
				if automata.StringKey(ln) != automata.StringKey(en) {
					t.Fatalf("trial %d %v: lazy nodes %v != pre-materialized %v", trial, c, ln, en)
				}
				for i := range ls {
					if ls[i] != es[i] {
						t.Fatalf("trial %d %v: lazy states %v != pre-materialized %v", trial, c, ls, es)
					}
				}
			}
			if got, want := lazy.MaterializedLayers(), pre.MaterializedLayers(); got != want {
				t.Fatalf("trial %d: lazy handle materialized %d layers, up-front build relaxed %d", trial, got, want)
			}
			if got, want := lazy.Cells(), pre.Cells(); got != want {
				t.Fatalf("trial %d: lazy view holds %d cells, pre-materialized %d", trial, got, want)
			}
		}
	}
}

// TestRecycledCheckpointPanics pins the Recycle contract: a recycled
// checkpoint must not serve another resume. A materialized one panics
// instead of reading recycled memory, and an untouched lazy handle
// panics instead of silently rebuilding its DP.
func TestRecycledCheckpointPanics(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	var (
		nt *kernel.NFATables
		v  *kernel.SeqView
		o  []automata.Symbol
	)
	for seed := int64(16090); o == nil; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := markov.Random(in, 4, 0.7, rng)
		tr := randomNFATransducer(in, out, 2, 1, rng)
		for _, a := range answers(tr, m) {
			nt, v, o = kernel.NewNFATables(tr), m.View(), a
			break
		}
	}
	sc := &kernel.ConstrainScratch{}
	materialized, err := kernel.MaterializedCheckpoint(context.Background(), nt, v, o, sc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, tc := range []struct {
		name string
		ck   *kernel.Checkpoint
	}{
		{"materialized", materialized},
		{"untouched", kernel.NewLazyCheckpoint(nt, v, o)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc.Recycle(tc.ck)
			defer func() {
				if recover() == nil {
					t.Fatal("resume against a recycled checkpoint did not panic")
				}
			}()
			kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, tc.ck, transducer.Unconstrained(), nil, sc)
		})
	}
}

// lazyAllocWorkload builds a fixed random workload, its bounds, an
// answer o with a satisfiable Lawler child, and an owned scratch — the
// fixture of the steady-state allocation tests.
func lazyAllocWorkload(t *testing.T) (nt *kernel.NFATables, v *kernel.SeqView, b *kernel.Bounds, o []automata.Symbol, c transducer.Constraint, sc *kernel.ConstrainScratch) {
	t.Helper()
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for seed := int64(16095); seed < 16195; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := markov.Random(in, 40, 0.7, rng)
		tr := randomNFATransducer(in, out, 2, 1, rng)
		nt = kernel.NewNFATables(tr)
		v = m.View()
		b = kernel.NewBounds(nt, v)
		sc = &kernel.ConstrainScratch{}
		o, _, _, _, ok := kernel.ConstrainedViterbi(nt, v, transducer.Unconstrained(), b, sc)
		if !ok {
			continue
		}
		ck := kernel.NewLazyCheckpoint(nt, v, o)
		for _, kid := range transducer.Unconstrained().Children(o) {
			if _, _, kok, _ := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, ck, kid, nil, sc); kok {
				return nt, v, b, o, kid, sc
			}
		}
	}
	t.Fatal("no seed produced an answer with a satisfiable Lawler child")
	return nil, nil, nil, nil, transducer.Constraint{}, nil
}

// TestResumeSteadyStateAllocs pins the scratch-recycling property of the
// bounded resume: with a warm ConstrainScratch, repeated resumes of the
// same constraint allocate only the returned answer/evidence slices —
// the candidate list, frontiers and backpointers all come from the
// scratch.
func TestResumeSteadyStateAllocs(t *testing.T) {
	nt, v, b, o, c, sc := lazyAllocWorkload(t)
	ck, err := kernel.MaterializedCheckpoint(context.Background(), nt, v, o, sc)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok, err := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, ck, c, b, sc); !ok || err != nil {
			t.Fatalf("warmup resume failed: ok=%v err=%v", ok, err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok, err := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, ck, c, b, sc); !ok || err != nil {
			t.Fatalf("measured resume failed: ok=%v err=%v", ok, err)
		}
	})
	// out, nodes, states: the three slices handed to the caller.
	if allocs > 3 {
		t.Fatalf("steady-state resume allocates %v objects, want ≤3 (the returned slices only)", allocs)
	}
}

// TestBuildRecycleSteadyStateAllocs pins the view freelist: a
// build-recycle cycle through one scratch reuses the previous
// checkpoint's view — header array, slab and the view struct itself —
// allocating only the fixed-size handle (checkpoint struct and
// alignment copy; the bound leaves room for one more).
func TestBuildRecycleSteadyStateAllocs(t *testing.T) {
	nt, v, _, o, _, sc := lazyAllocWorkload(t)
	step := func() {
		ck, err := kernel.MaterializedCheckpoint(context.Background(), nt, v, o, sc)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		sc.Recycle(ck)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(100, step)
	if allocs > 3 {
		t.Fatalf("steady-state build-recycle allocates %v objects, want ≤3 (the checkpoint handle only)", allocs)
	}
}
