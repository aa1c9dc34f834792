// Tied-workload benchmark for `make bench` / BENCH_ranked.json: a cold
// pruned top-12 on the amplified Max-3-DNF reduction, whose top answers
// tie exactly (the flat E_max landscape of Theorem 4.4, and the stream
// of the SLO "adversarial" workload). Every other ranked benchmark has
// strictly decreasing top scores, so this is the one that gates the
// Lawler tie floors: without them each tied emission first resolves
// every bound-tied child.
package ranked

import (
	"math/rand"
	"testing"

	"markovseq/internal/hardness"
)

func BenchmarkRankedTopKTied(b *testing.B) {
	const k = 12
	hi := hardness.NewMealyInstance(hardness.RandomMax3DNF(6, 5, rand.New(rand.NewSource(100))))
	m := hi.Amplify(10) // n = 60
	b.ReportAllocs()
	b.ResetTimer()
	var ev *Evaluator
	for i := 0; i < b.N; i++ {
		ev = NewEvaluator(hi.T, m)
		if got := drainAnswers(ev.Enumerate().Next, k); len(got) < k {
			b.Fatalf("drained %d answers, want %d", len(got), k)
		}
	}
	b.ReportMetric(float64(ev.PruneStats().Resolves), "resolves/op")
}
