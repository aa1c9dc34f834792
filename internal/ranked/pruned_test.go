// Differential tests for the weight-pushed pruned kernel at the
// enumerator level: pruning is on by default and must be invisible — the
// enumeration drained through the bounded kernels is required to be
// bit-identical (outputs and Float64bits of every score) to the
// exhaustive sweep behind WithBounds(nil), across application workloads,
// random instances, the Theorem 4.4 hardness adversaries, cancellation,
// and append-then-rank.
package ranked

import (
	"context"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/hardness"
	"markovseq/internal/markov"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

// prunedWorkloads is the shared instance pool: serving-shaped (RFID),
// extraction-shaped (textgen), random nondeterministic transducers, and
// the Max-3-DNF reduction whose near-tied answer scores are exactly the
// adversarial regime for threshold pruning (every assignment answer sits
// a hair under the incumbent, so a sloppy τ would cut live cells).
func prunedWorkloads(t *testing.T) []struct {
	name string
	t    *transducer.Transducer
	m    *markov.Sequence
} {
	t.Helper()
	type workload = struct {
		name string
		t    *transducer.Transducer
		m    *markov.Sequence
	}
	var ws []workload
	{
		tr, m := rfidRankedWorkload(t, 40)
		ws = append(ws, workload{"rfid", tr, m})
	}
	{
		tr, m := textgenRankedWorkload(t)
		ws = append(ws, workload{"textgen", tr, m})
	}
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(15000 + trial)))
		m := markov.Random(in, 2+rng.Intn(5), 0.6, rng)
		ws = append(ws, workload{"random", randomNDTransducer(in, out, 1+rng.Intn(3), rng), m})
	}
	rng := rand.New(rand.NewSource(15100))
	hi := hardness.NewMealyInstance(hardness.RandomMax3DNF(4, 3, rng))
	ws = append(ws, workload{"max3dnf", hi.T, hi.M})
	ws = append(ws, workload{"max3dnf-amplified", hi.T, hi.Amplify(2)})
	return ws
}

// TestPrunedMatchesExhaustive is the tentpole's correctness contract:
// for every workload, draining the default (pruned) enumerator yields
// the exact answer sequence of the exhaustive reference, bit for bit.
func TestPrunedMatchesExhaustive(t *testing.T) {
	testutil.CheckLeaks(t)
	const cap = 40
	for _, w := range prunedWorkloads(t) {
		want := drainAnswers(NewEnumerator(w.t, w.m, WithBounds(nil)).Next, cap)
		got := drainAnswers(NewEnumerator(w.t, w.m).Next, cap)
		assertSameAnswerSequence(t, w.name+" pruned", got, want)
	}
}

// TestPrunedResumeAfterCancel combines pruning with the PR 3 resume
// contract: a pruned enumerator cancelled mid-drain resumes the exact
// ranked order, and prefix+suffix equals the exhaustive enumeration.
func TestPrunedResumeAfterCancel(t *testing.T) {
	testutil.CheckLeaks(t)
	for _, w := range prunedWorkloads(t) {
		full := drainAnswers(NewEnumerator(w.t, w.m, WithBounds(nil)).Next, 24)
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
		assertSameAnswerSequence(t, w.name+" pruned prefix", prefix, full[:k])
		assertSameAnswerSequence(t, w.name+" pruned suffix", rest, full[k:])
	}
}

// TestPrunedAppendThenRank combines pruning with the PR 6 append
// contract: ranking a sequence grown event by event through Extended is
// bit-identical — under the default pruned kernel — to the exhaustive
// enumeration of the same sequence built in one shot.
func TestPrunedAppendThenRank(t *testing.T) {
	testutil.CheckLeaks(t)
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(15200 + trial)))
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
		want := drainAnswers(NewEnumerator(tr, full, WithBounds(nil)).Next, 30)
		assertSameAnswerSequence(t, "append-then-rank", got, want)
	}
}

// TestPruneStatsAccumulate pins the observability contract: a drained
// pruned evaluator reports its bounded resolves (and visited cells) at
// every length (kernel.BoundsMinN is for its callers to select on),
// while an exhaustive evaluator reports all zeros — the counters are how
// operators confirm which kernel served a query.
func TestPruneStatsAccumulate(t *testing.T) {
	for _, n := range []int{8, 40} {
		tr, m := rfidRankedWorkload(t, n)

		ev := NewEvaluator(tr, m)
		drainAnswers(ev.Enumerate().Next, 15)
		st := ev.PruneStats()
		if st.Resolves == 0 || st.VisitedCells == 0 {
			t.Fatalf("n=%d: pruned evaluator reported no bounded work: %+v", n, st)
		}

		ex := NewEvaluator(tr, m, WithBounds(nil))
		drainAnswers(ex.Enumerate().Next, 15)
		if st := ex.PruneStats(); st.Resolves != 0 || st.PrunedCells != 0 || st.VisitedCells != 0 {
			t.Fatalf("n=%d: exhaustive evaluator accumulated pruning stats: %+v", n, st)
		}
	}
}
