// Differential tests for lazy checkpoint materialization at the
// enumerator level: lazy handles are the default and must be invisible —
// the enumeration drained through deferred checkpoint builds is required
// to be bit-identical (outputs and Float64bits of every score) to the
// eager builds behind WithEagerCheckpoints and to the exhaustive sweep,
// across the shared workload pool, cancellation, and append-then-rank.
// The stats tests pin the observable difference: where the DP work lands
// (LazyLayers vs EagerLayers) and which handles never materialize.
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

// TestLazyMatchesEagerCheckpoints is the tentpole's second correctness
// contract: for every workload, draining the default (lazy-checkpoint)
// enumerator yields the exact answer sequence of the eager-checkpoint
// build and of the exhaustive reference, bit for bit.
func TestLazyMatchesEagerCheckpoints(t *testing.T) {
	testutil.CheckLeaks(t)
	const cap = 40
	for _, w := range prunedWorkloads(t) {
		eager := drainAnswers(NewEnumerator(w.t, w.m, WithEagerCheckpoints()).Next, cap)
		exhaustive := drainAnswers(NewEnumerator(w.t, w.m, WithExhaustive()).Next, cap)
		assertSameAnswerSequence(t, w.name+" eager-vs-exhaustive", eager, exhaustive)
		lazy := drainAnswers(NewEnumerator(w.t, w.m).Next, cap)
		assertSameAnswerSequence(t, w.name+" lazy", lazy, eager)
	}
}

// TestLazyResumeAfterCancel combines lazy materialization with the PR 3
// resume contract: a lazy enumerator cancelled mid-drain — possibly with
// a handle's deferred build in flight — resumes the exact ranked order,
// and prefix+suffix equals the eager-checkpoint enumeration.
func TestLazyResumeAfterCancel(t *testing.T) {
	testutil.CheckLeaks(t)
	for _, w := range prunedWorkloads(t) {
		full := drainAnswers(NewEnumerator(w.t, w.m, WithEagerCheckpoints()).Next, 24)
		if len(full) < 3 {
			continue
		}
		k := len(full) / 2
		e := NewEnumerator(w.t, w.m)
		ctx, cancel := context.WithCancel(context.Background())
		prefix, err := drainCtx(ctx, e, k)
		if err != nil {
			t.Fatalf("%s: live-context drain failed: %v", w.name, err)
		}
		cancel()
		if _, ok, err := e.NextCtx(ctx); err == nil || ok {
			t.Fatalf("%s: cancelled NextCtx did not report the cancellation", w.name)
		}
		rest, err := drainCtx(context.Background(), e, len(full)-k)
		if err != nil {
			t.Fatalf("%s: resume after cancel failed: %v", w.name, err)
		}
		assertSameAnswerSequence(t, w.name+" lazy prefix", prefix, full[:k])
		assertSameAnswerSequence(t, w.name+" lazy suffix", rest, full[k:])
	}
}

// TestLazyAppendThenRank combines lazy materialization with the PR 6
// append contract: ranking a sequence grown event by event through
// Extended is bit-identical — under the default lazy-checkpoint path —
// to the eager-checkpoint enumeration of the same sequence built in one
// shot.
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
		got := drainAnswers(NewEnumerator(tr, grown).Next, 30)
		want := drainAnswers(NewEnumerator(tr, full, WithEagerCheckpoints()).Next, 30)
		assertSameAnswerSequence(t, "lazy append-then-rank", got, want)
	}
}

// TestLazyCheckpointDeferred pins the laziness itself: a checkpoint
// handle handed out by the evaluator has materialized nothing until a
// resolve touches it, and the first touch builds the full DP.
func TestLazyCheckpointDeferred(t *testing.T) {
	tr, m := rfidRankedWorkload(t, 40)

	ev := NewEvaluator(tr, m)
	ck := ev.checkpoint(nil)
	if got := ck.MaterializedLayers(); got != 0 {
		t.Fatalf("untouched lazy handle materialized %d layers, want 0", got)
	}
	if got := ck.Cells(); got != 0 {
		t.Fatalf("untouched lazy handle holds %d cells, want 0", got)
	}
	if _, _, ok := ev.TopEmax(transducer.Unconstrained()); !ok {
		t.Fatal("unconstrained top answer missing")
	}
	if got, want := ck.MaterializedLayers(), ck.Layers(); got != want {
		t.Fatalf("touched lazy handle materialized %d layers, want the full %d", got, want)
	}

	eg := NewEvaluator(tr, m, WithEagerCheckpoints())
	eck := eg.checkpoint(nil)
	if got, want := eck.MaterializedLayers(), eck.Layers(); got != want {
		t.Fatalf("eager checkpoint materialized %d layers at build, want %d", got, want)
	}
}

// TestLazyStatsAccumulate pins the observability contract of the lazy
// path: a drained lazy evaluator reports its handles and the layers they
// relaxed on demand (never more than a full build per handle, and no
// eager layers), while an eager evaluator reports the mirror image —
// the counters are how operators confirm where the DP work landed.
func TestLazyStatsAccumulate(t *testing.T) {
	tr, m := rfidRankedWorkload(t, 40)
	n := uint64(40)

	ev := NewEvaluator(tr, m)
	drainAnswers(ev.Enumerate().Next, 15)
	st := ev.PruneStats()
	if st.LazyHandles == 0 || st.LazyLayers == 0 {
		t.Fatalf("lazy evaluator reported no deferred builds: %+v", st)
	}
	if st.EagerLayers != 0 {
		t.Fatalf("lazy evaluator reported eager layers: %+v", st)
	}
	if st.LazyLayers > st.LazyHandles*n {
		t.Fatalf("lazy drain relaxed %d layers over %d handles of %d: a handle materialized more than once",
			st.LazyLayers, st.LazyHandles, n)
	}
	if st.CandsSelected == 0 {
		t.Fatalf("lazy evaluator reported no bounded candidate selection: %+v", st)
	}

	eg := NewEvaluator(tr, m, WithEagerCheckpoints())
	drainAnswers(eg.Enumerate().Next, 15)
	est := eg.PruneStats()
	if est.EagerLayers == 0 {
		t.Fatalf("eager evaluator reported no eager layers: %+v", est)
	}
	if est.LazyHandles != 0 || est.LazyLayers != 0 {
		t.Fatalf("eager evaluator accumulated lazy counters: %+v", est)
	}
}
