// Delay-focused benchmarks for the ranked enumeration (Theorem 4.3),
// feeding `make bench` / BENCH_ranked.json: top-k wall time,
// time-to-first-answer, and per-answer delay percentiles, each on the
// RFID and textgen application workloads, with two resolution paths:
//
//   - reference:   the pre-incremental loop (legacy_test.go) — materializes
//     the constrained product and re-runs Viterbi from position 0 for
//     every Lawler resolution;
//   - incremental: the constraint-incremental kernel with prefix
//     checkpointing.
//
// The smoke test at the bottom pins the acceptance property: both paths
// emit the same top-k sequence on the benchmark workloads.
package ranked

import (
	"sort"
	"testing"
	"time"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

const benchTopK = 10

// rankedBenchPaths names the two resolution paths and how to build an
// iterator for each; the evaluator (tables + checkpoint cache) is
// rebuilt per iteration so every iteration pays the full serving cost.
func rankedBenchPaths(tr *transducer.Transducer, m *markov.Sequence) []struct {
	name string
	iter func() func() (Answer, bool)
} {
	return []struct {
		name string
		iter func() func() (Answer, bool)
	}{
		{"reference", func() func() (Answer, bool) { return NewReferenceEnumerator(tr, m).Next }},
		{"incremental", func() func() (Answer, bool) { return NewEnumerator(tr, m).Next }},
	}
}

func benchRankedTopK(b *testing.B, tr *transducer.Transducer, m *markov.Sequence) {
	for _, p := range rankedBenchPaths(tr, m) {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next := p.iter()
				for j := 0; j < benchTopK; j++ {
					if _, ok := next(); !ok {
						break
					}
				}
			}
		})
	}
}

// benchRankedDelay measures the per-answer delay distribution over a
// top-k drain: ns/op is the whole drain, and the p50/max per-answer
// delays (including the first answer, i.e. TTFA) are reported as extra
// metrics across all iterations.
func benchRankedDelay(b *testing.B, tr *transducer.Transducer, m *markov.Sequence) {
	for _, p := range rankedBenchPaths(tr, m) {
		b.Run(p.name, func(b *testing.B) {
			delays := make([]float64, 0, benchTopK*b.N)
			var ttfa []float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := p.iter()
				prev := time.Now()
				for j := 0; j < benchTopK; j++ {
					if _, ok := next(); !ok {
						break
					}
					now := time.Now()
					d := float64(now.Sub(prev))
					delays = append(delays, d)
					if j == 0 {
						ttfa = append(ttfa, d)
					}
					prev = now
				}
			}
			b.StopTimer()
			if len(delays) == 0 {
				b.Fatal("no answers")
			}
			sort.Float64s(delays)
			sort.Float64s(ttfa)
			b.ReportMetric(delays[len(delays)/2], "p50-delay-ns/answer")
			b.ReportMetric(delays[len(delays)-1], "max-delay-ns/answer")
			b.ReportMetric(ttfa[len(ttfa)/2], "ttfa-ns")
		})
	}
}

func BenchmarkRankedTopKRFID(b *testing.B) {
	tr, m := rfidRankedWorkload(b, 200)
	benchRankedTopK(b, tr, m)
}

func BenchmarkRankedTopKTextgen(b *testing.B) {
	tr, m := textgenRankedWorkload(b)
	benchRankedTopK(b, tr, m)
}

func BenchmarkRankedDelayRFID(b *testing.B) {
	tr, m := rfidRankedWorkload(b, 200)
	benchRankedDelay(b, tr, m)
}

func BenchmarkRankedDelayTextgen(b *testing.B) {
	tr, m := textgenRankedWorkload(b)
	benchRankedDelay(b, tr, m)
}

// TestRankedBenchWorkloadsSmoke runs the benchmark workloads once under
// plain `go test` and pins the acceptance property: on the top-k drain
// (k = benchTopK, RFID n = 200 and textgen), the incremental path
// matches the pre-incremental reference rank by rank — bit-equal scores
// and, within each maximal group of exactly tied scores, the same set
// of outputs. (The RFID workload has structurally symmetric paths with
// bit-identical probabilities; inside such a tie group the reference
// heap's order is arbitrary, so set equality is the strongest property
// that is well-defined across implementations.)
func TestRankedBenchWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark workload smoke is not short")
	}
	run := func(name string, tr *transducer.Transducer, m *markov.Sequence) {
		ref := drainAnswers(NewReferenceEnumerator(tr, m).Next, benchTopK)
		inc := drainAnswers(NewEnumerator(tr, m).Next, benchTopK)
		if len(inc) != len(ref) {
			t.Fatalf("%s: incremental %d answers, reference %d", name, len(inc), len(ref))
		}
		for i := range ref {
			if inc[i].LogEmax != ref[i].LogEmax {
				t.Fatalf("%s rank %d: score %v, reference %v (must be bit-identical)",
					name, i, inc[i].LogEmax, ref[i].LogEmax)
			}
		}
		for lo := 0; lo < len(ref); {
			hi := lo + 1
			for hi < len(ref) && ref[hi].LogEmax == ref[lo].LogEmax {
				hi++
			}
			group := map[string]int{}
			for i := lo; i < hi; i++ {
				group[automata.StringKey(ref[i].Output)]++
				group[automata.StringKey(inc[i].Output)]--
			}
			for _, d := range group {
				if d != 0 {
					t.Fatalf("%s: tie group ranks [%d,%d) has different outputs than reference", name, lo, hi)
				}
			}
			lo = hi
		}
	}
	{
		tr, m := rfidRankedWorkload(t, 200)
		run("rfid", tr, m)
	}
	{
		tr, m := textgenRankedWorkload(t)
		run("textgen", tr, m)
	}
}
