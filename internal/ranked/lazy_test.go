// Differential tests for lazy checkpoint materialization at the
// enumerator level: every checkpoint is a lazy handle, in the pruned and
// the exhaustive mode alike, and the deferral must be invisible: the
// enumeration drained through
// deferred checkpoint builds is required to be bit-identical (outputs
// and Float64bits of every score) to the exhaustive sweep, across the
// shared workload pool, cancellation, and append-then-rank. The stats tests pin
// the observable side: where the DP work lands (LazyLayers) and which
// handles never materialize.
package ranked

import (
	"context"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

// lazyModes are the enumerator modes whose checkpoints the lazy
// differentials drain, whatever the instance's length: pruned, and the
// exhaustive sweep (which NewEnumerator runs below kernel.BoundsMinN).
var lazyModes = []struct {
	name string
	mk   func(*transducer.Transducer, *markov.Sequence, ...Option) *Enumerator
}{{"pruned", pruned}, {"exhaustive", exhaustive}}

// TestLazyMatchesEagerCheckpoints is the tentpole's second correctness
// contract: for every workload and mode, a cold drain, whose handles
// materialize on first touch, yields the exact answer sequence of the
// exhaustive reference, bit for bit.
func TestLazyMatchesEagerCheckpoints(t *testing.T) {
	testutil.CheckLeaks(t)
	const cap = 40
	for _, w := range prunedWorkloads(t) {
		want := drainAnswers(exhaustive(w.t, w.m).Next, cap)
		for _, mode := range lazyModes {
			cold := drainAnswers(mode.mk(w.t, w.m).Next, cap)
			assertSameAnswerSequence(t, w.name+" "+mode.name+" lazy", cold, want)
		}
	}
}

// TestLazyResumeAfterCancel combines lazy materialization with the PR 3
// resume contract: a lazy enumerator cancelled mid-drain — possibly with
// a handle's deferred build in flight — resumes the exact ranked order,
// and prefix+suffix equals the exhaustive enumeration, in every mode.
func TestLazyResumeAfterCancel(t *testing.T) {
	testutil.CheckLeaks(t)
	for _, w := range prunedWorkloads(t) {
		full := drainAnswers(exhaustive(w.t, w.m).Next, 24)
		if len(full) < 3 {
			continue
		}
		k := len(full) / 2
		for _, mode := range lazyModes {
			name := w.name + " " + mode.name
			e := mode.mk(w.t, w.m)
			ctx, cancel := context.WithCancel(context.Background())
			prefix, err := drainCtx(ctx, e, k)
			if err != nil {
				t.Fatalf("%s: live-context drain failed: %v", name, err)
			}
			cancel()
			if _, ok, err := e.NextCtx(ctx); err == nil || ok {
				t.Fatalf("%s: cancelled NextCtx did not report the cancellation", name)
			}
			rest, err := drainCtx(context.Background(), e, len(full)-k)
			if err != nil {
				t.Fatalf("%s: resume after cancel failed: %v", name, err)
			}
			assertSameAnswerSequence(t, name+" lazy prefix", prefix, full[:k])
			assertSameAnswerSequence(t, name+" lazy suffix", rest, full[k:])
		}
	}
}

// TestLazyAppendThenRank combines lazy materialization with the PR 6
// append contract: ranking a sequence grown event by event through
// Extended is bit-identical — in every lazy mode — to the exhaustive
// enumeration of the same sequence built in one shot.
func TestLazyAppendThenRank(t *testing.T) {
	testutil.CheckLeaks(t)
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(15300 + trial)))
		n := 6 + rng.Intn(5)
		full := markov.Random(in, n, 0.6, rng)
		tr := randomNDTransducer(in, out, 1+rng.Intn(3), rng)
		p := 1 + rng.Intn(n-1)
		grown := full.Window(1, p)
		for i := p; i < n; i++ {
			var err error
			grown, err = grown.Extended([][][]float64{full.TransAt(i)})
			if err != nil {
				t.Fatalf("trial %d: extend at %d: %v", trial, i, err)
			}
		}
		want := drainAnswers(exhaustive(tr, full).Next, 30)
		for _, mode := range lazyModes {
			got := drainAnswers(mode.mk(tr, grown).Next, 30)
			assertSameAnswerSequence(t, mode.name+" lazy append-then-rank", got, want)
		}
	}
}

// TestLazyCheckpointDeferred pins the laziness itself: in every mode, a
// checkpoint handle handed out by the enumerator has materialized
// nothing until a resolve touches it, and the first touch (the root
// resolve, aligned to the empty prefix) builds the full DP.
func TestLazyCheckpointDeferred(t *testing.T) {
	tr, m := rfidRankedWorkload(t, 40)
	for _, mode := range lazyModes {
		e := mode.mk(tr, m)
		ck := e.rootHandle()
		if got := ck.MaterializedLayers(); got != 0 {
			t.Fatalf("%s: untouched lazy handle materialized %d layers, want 0", mode.name, got)
		}
		if got := ck.Cells(); got != 0 {
			t.Fatalf("%s: untouched lazy handle holds %d cells, want 0", mode.name, got)
		}
		if _, ok := e.Next(); !ok {
			t.Fatalf("%s: unconstrained top answer missing", mode.name)
		}
		if got, want := ck.MaterializedLayers(), ck.Layers(); got != want {
			t.Fatalf("%s: touched lazy handle materialized %d layers, want the full %d", mode.name, got, want)
		}
	}
}

// TestLazyStatsAccumulate pins the observability contract of the lazy
// path: a drained pruned enumerator reports its handles and the layers
// they relaxed on demand (never more than a full build per handle) — the
// counters are how operators confirm where the DP work landed.
func TestLazyStatsAccumulate(t *testing.T) {
	tr, m := rfidRankedWorkload(t, 40)
	n := uint64(40)

	e := NewEnumerator(tr, m)
	drainAnswers(e.Next, 15)
	st := e.PruneStats()
	if st.LazyHandles == 0 || st.LazyLayers == 0 {
		t.Fatalf("lazy enumerator reported no deferred builds: %+v", st)
	}
	if st.LazyLayers > st.LazyHandles*n {
		t.Fatalf("lazy drain relaxed %d layers over %d handles of %d: a handle materialized more than once",
			st.LazyLayers, st.LazyHandles, n)
	}
	if st.CandsSelected == 0 {
		t.Fatalf("lazy enumerator reported no bounded candidate selection: %+v", st)
	}
}
