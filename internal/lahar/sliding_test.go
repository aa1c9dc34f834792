package lahar

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/rfid"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

// slidingWorkload builds an RFID trace and a place query, returning a
// DB factory so each configuration (serial/parallel/...) gets its own
// store over the identical stream.
func slidingWorkload(t *testing.T, noise rfid.Noise, trigger string, n int, seed int64) func(opts ...Option) *DB {
	t.Helper()
	f := rfid.Hospital(3, 2)
	h := rfid.BuildHMM(f, noise)
	tr, err := rfid.Simulate(h, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	q := rfid.PlaceTransducer(f, trigger)
	return func(opts ...Option) *DB {
		db := New(opts...)
		if err := db.PutStream("cart", tr.Seq); err != nil {
			t.Fatal(err)
		}
		db.RegisterTransducer("lab", q)
		return db
	}
}

// referenceSliding is the bind-per-window reference of SlidingTopK: each
// window's marginals deep-copied out of one forward pass
// (markov.Windower.Window) and ranked by a freshly bound engine, in
// window order.
func referenceSliding(t *testing.T, db *DB, stream, qname string, window, stride, k int) []WindowResult {
	t.Helper()
	m, pr, err := db.lookup(stream, qname)
	if err != nil {
		t.Fatal(err)
	}
	wr := m.Windower()
	var out []WindowResult
	for start := 1; start+window-1 <= m.Len(); start += stride {
		end := start + window - 1
		eng, err := pr.BindValidated(wr.Window(start, end))
		if err != nil {
			t.Fatal(err)
		}
		top, err := eng.TopKCtx(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, WindowResult{Start: start, End: end, Top: resultsOf(top)})
	}
	return out
}

// identityTieStore is the exact-tie workload: the identity transducer
// over a uniform 3-symbol chain, so every answer of every window has the
// same E_max, bit for bit, and the emission order inside a window rests
// entirely on the tie rule.
func identityTieStore(t *testing.T, n int) *DB {
	t.Helper()
	abc := automata.Chars("abc")
	tr := transducer.New(abc, abc, 1, 0)
	tr.SetAccepting(0, true)
	for _, s := range abc.Symbols() {
		tr.AddTransition(0, s, 0, []automata.Symbol{s})
	}
	third := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	m := markov.Homogeneous(abc, n, third, [][]float64{third, third, third})
	db := New()
	if err := db.PutStream("cart", m); err != nil {
		t.Fatal(err)
	}
	db.RegisterTransducer("lab", tr)
	return db
}

// slidingSweeps is the window/stride grid the differential tests run:
// length-1 windows, stride splitting the stream unevenly, stride larger
// than the window (the cursor skips positions), the whole
// stream as a single window, and the dense stride-1 sweep.
func slidingSweeps(n int) [][2]int {
	return [][2]int{{1, 1}, {3, 2}, {4, 5}, {n, 1}, {5, 3}, {8, 1}}
}

// TestSlidingSWAGMatchesReference is the end-to-end differential test
// of the amortized sweep: for dense (every window answerable) and
// sparse (most windows answerless) workloads, across the full
// window/stride grid, the amortized path must be reflect.DeepEqual —
// float bits included — to the bind-per-window reference. The ties case
// makes every answer of a window tie exactly, so the sweep must break
// ties by the same rule as TopK, on windows both below and above
// kernel.BoundsMinN (the unpruned and the pruned sweeper).
func TestSlidingSWAGMatchesReference(t *testing.T) {
	testutil.CheckLeaks(t)
	workloads := []struct {
		name    string
		noise   rfid.Noise
		trigger string
	}{
		{"dense", rfid.DefaultNoise, "lab"},
		{"sparse", rfid.Noise{Miss: 0.02, Confuse: 0, Dwell: 0.5}, "r3"},
	}
	const n = 40
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			fast := slidingWorkload(t, wl.noise, wl.trigger, n, 7)()
			for _, sweep := range slidingSweeps(n) {
				window, stride := sweep[0], sweep[1]
				for _, k := range []int{1, 3} {
					want := referenceSliding(t, fast, "cart", "lab", window, stride, k)
					got, err := fast.SlidingTopK("cart", "lab", window, stride, k)
					if err != nil {
						t.Fatalf("w=%d s=%d k=%d: fast: %v", window, stride, k, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("w=%d s=%d k=%d: amortized sweep diverges from reference\ngot  %+v\nwant %+v",
							window, stride, k, got, want)
					}
				}
			}
		})
	}
	t.Run("ties", func(t *testing.T) {
		db := identityTieStore(t, n)
		for _, window := range []int{4, 32, 40} {
			want := referenceSliding(t, db, "cart", "lab", window, 4, 3)
			got, err := db.SlidingTopK("cart", "lab", window, 4, 3)
			if err != nil {
				t.Fatalf("w=%d: %v", window, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("w=%d: tied answers leave the sweep in a different order than TopK\ngot  %+v\nwant %+v",
					window, got, want)
			}
		}
	})
}

// TestSlidingSWAGParallelMatchesReference repeats the differential
// check with the parallel window driver; run under -race this also
// exercises the per-worker evaluator pooling.
func TestSlidingSWAGParallelMatchesReference(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 40
	par := slidingWorkload(t, rfid.DefaultNoise, "lab", n, 11)(WithParallelWindows(true), WithWorkers(4))
	for _, sweep := range slidingSweeps(n) {
		window, stride := sweep[0], sweep[1]
		want := referenceSliding(t, par, "cart", "lab", window, stride, 3)
		got, err := par.SlidingTopK("cart", "lab", window, stride, 3)
		if err != nil {
			t.Fatalf("w=%d s=%d: parallel: %v", window, stride, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("w=%d s=%d: parallel sweep diverges from the reference", window, stride)
		}
	}
}

// TestSlidingSparseGateFindsEmptyWindows pins the workload shape of the
// sparse differential case: the low-noise trace with a rarely-visited
// trigger room must actually produce answerless windows (otherwise the
// sweeper's empty drain, which finds no root answer and reports a nil
// Top, is never exercised) and answered ones. The name recalls the
// emptiness gate that used to skip these windows before ranking.
func TestSlidingSparseGateFindsEmptyWindows(t *testing.T) {
	const n = 120
	mk := slidingWorkload(t, rfid.Noise{Miss: 0.02, Confuse: 0, Dwell: 0.5}, "r3", n, 7)
	res, err := mk().SlidingTopK("cart", "lab", 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	empty, full := 0, 0
	for _, w := range res {
		if len(w.Top) == 0 {
			empty++
		} else {
			full++
		}
	}
	if empty == 0 || full == 0 {
		t.Fatalf("sparse workload degenerate: %d empty, %d non-empty windows (want both > 0)", empty, full)
	}
}

// TestSlidingCancelMidSweepPrefix checks the mid-sweep deadline
// contract on the serial driver: the completed prefix of windows comes
// back, in order, bit-identical to the same prefix of an uncancelled
// run, together with the context error — and the interrupted window is
// never half-reported.
func TestSlidingCancelMidSweepPrefix(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 60
	mk := slidingWorkload(t, rfid.DefaultNoise, "lab", n, 7)
	db := mk()
	full, err := db.SlidingTopK("cart", "lab", 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 5 {
		t.Fatalf("workload too small: %d windows", len(full))
	}
	sawPartial := false
	for _, budget := range []int{1, 5, 20, 100, 400} {
		ctx := newCountingCtx(budget)
		got, err := db.SlidingTopKCtx(ctx, "cart", "lab", 4, 2, 2)
		if err == nil {
			if len(got) != len(full) {
				t.Fatalf("budget %d: nil error with %d/%d windows", budget, len(got), len(full))
			}
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("budget %d: err = %v, want context.DeadlineExceeded", budget, err)
		}
		if len(got) >= len(full) {
			t.Fatalf("budget %d: deadline error with all %d windows", budget, len(got))
		}
		if 0 < len(got) && len(got) < len(full) {
			sawPartial = true
		}
		if !reflect.DeepEqual(got, full[:len(got)]) {
			t.Fatalf("budget %d: returned windows are not the completed prefix", budget)
		}
	}
	if !sawPartial {
		t.Fatal("no budget produced a strict mid-sweep prefix; the test is not exercising the contract")
	}
}

// TestSlidingCancelMidSweepPrefixParallel is the same contract under
// the parallel driver: after the workers drain, the longest completed
// prefix is returned with ctx.Err().
func TestSlidingCancelMidSweepPrefixParallel(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 60
	mk := slidingWorkload(t, rfid.DefaultNoise, "lab", n, 7)
	db := mk(WithParallelWindows(true), WithWorkers(3))
	full, err := db.SlidingTopK("cart", "lab", 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 10, 50, 200} {
		ctx := newCountingCtx(budget)
		got, err := db.SlidingTopKCtx(ctx, "cart", "lab", 4, 2, 2)
		if err == nil {
			if len(got) != len(full) {
				t.Fatalf("budget %d: nil error with %d/%d windows", budget, len(got), len(full))
			}
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("budget %d: err = %v, want context.DeadlineExceeded", budget, err)
		}
		if !reflect.DeepEqual(got, full[:len(got)]) {
			t.Fatalf("budget %d: returned windows are not the completed prefix", budget)
		}
	}
}

// TestSlidingSProjMatchesReference covers the non-transducer plan class:
// s-projector sweeps take the engine-per-window fallback over shared
// (zero-copy) windows, which must still match the deep-copy reference
// exactly.
func TestSlidingSProjMatchesReference(t *testing.T) {
	testutil.CheckLeaks(t)
	ab := automata.Chars("ab")
	const n = 14
	m := markov.Random(ab, n, 0.6, rand.New(rand.NewSource(5)))
	fast := New()
	if err := fast.PutStream("s", m); err != nil {
		t.Fatal(err)
	}
	fast.RegisterSProjector("runs", mustSimpleSProjector(t, "a+", ab), false)
	for _, sweep := range [][2]int{{1, 1}, {3, 2}, {4, 5}, {n, 1}, {5, 3}} {
		window, stride := sweep[0], sweep[1]
		want := referenceSliding(t, fast, "s", "runs", window, stride, 3)
		got, err := fast.SlidingTopK("s", "runs", window, stride, 3)
		if err != nil {
			t.Fatalf("w=%d s=%d: fast: %v", window, stride, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("w=%d s=%d: sproj sweep diverges from reference\ngot  %+v\nwant %+v", window, stride, got, want)
		}
	}
}
