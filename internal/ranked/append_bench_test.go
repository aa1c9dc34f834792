// Append-then-rank benchmarks, feeding `make bench` / BENCH_ranked.json:
// the cost of keeping a top-k answer fresh while the stream grows one
// event at a time. One op is a fixed script over the same RFID workload:
// appendBenchAppends appends past a stream of appendBenchStart events,
// each followed by a top-appendBenchK drain. Two constructions:
//
//   - BenchmarkRankedAppendIncremental: one extendable enumerator,
//     drained once at the start length, carried across every append by
//     ExtendEnumerator — emitted answers re-enter as exact singletons,
//     the unresolved frontier re-enters bounded — so each append pays for
//     the appended suffix and the drain, not for the stream prefix.
//
//   - BenchmarkRankedAppendRebuild: a fresh enumerator per append (the
//     pre-incremental serving behavior), re-running the constrained
//     Viterbi resolutions over the full stream every time.
//
// Each op rebuilds its starting state untimed (a fresh window of the
// trace and, for the incremental script, the warm drain), so ns/op does
// not depend on b.N or -benchtime. The incremental benchmark reports
// reused/append and reseeded/append — the average number of answers
// re-entered as exact singletons and of subproblems re-seeded with
// refreshed bounds per append — as extra metrics, carry-ns, the mean
// wall time per append spent inside ExtendEnumerator (the carry alone,
// without the drain that follows it), and live-MB, the live
// heap after the op's last drain while the carried enumerator is still
// referenced (read after a forced GC with the timer stopped, averaged
// over ops): the retained state a stream pays to keep its top-k fresh.
// The tracked speedup is the ns/op ratio of the pair.
package ranked

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"markovseq/internal/markov"
	"markovseq/internal/rfid"
	"markovseq/internal/transducer"
)

const (
	appendBenchStart   = 200 // stream length before an op's first append
	appendBenchAppends = 25  // appends per op, each followed by a drain
	appendBenchK       = 10  // answers drained after every append
)

// appendBenchWorkload simulates an RFID trace long enough for one op's
// appends past the starting prefix.
func appendBenchWorkload(b *testing.B) (*transducer.Transducer, *markov.Sequence) {
	b.Helper()
	f := rfid.Hospital(4, 2)
	h := rfid.BuildHMM(f, rfid.DefaultNoise)
	trc, err := rfid.Simulate(h, appendBenchStart+appendBenchAppends, rand.New(rand.NewSource(31)))
	if err != nil {
		b.Fatal(err)
	}
	return rfid.PlaceTransducer(f, "lab"), trc.Seq
}

func drainAppendBench(b *testing.B, e *Enumerator) {
	b.Helper()
	for j := 0; j < appendBenchK; j++ {
		if _, ok := e.Next(); !ok {
			break
		}
	}
}

// appendBenchStep returns grown extended by the trace's transition into
// its next position.
func appendBenchStep(b *testing.B, full, grown *markov.Sequence) *markov.Sequence {
	b.Helper()
	next, err := grown.Extended([][][]float64{full.TransAt(grown.Len())})
	if err != nil {
		b.Fatal(err)
	}
	return next
}

func BenchmarkRankedAppendIncremental(b *testing.B) {
	tr, full := appendBenchWorkload(b)
	var reused, reseeded, live uint64
	var carry time.Duration
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		grown := full.Window(1, appendBenchStart)
		e := NewEnumerator(tr, grown, WithExtendable())
		drainAppendBench(b, e) // warm: the first carry needs a drained tree
		b.StartTimer()
		for j := 0; j < appendBenchAppends; j++ {
			grown = appendBenchStep(b, full, grown)
			t0 := time.Now()
			ne, ok := ExtendEnumerator(e, grown, 1)
			carry += time.Since(t0)
			if !ok {
				b.Fatal("ExtendEnumerator refused a drained extendable enumerator")
			}
			e = ne
			drainAppendBench(b, e)
		}
		b.StopTimer()
		r, s, _ := e.ExtendStats()
		reused += r
		reseeded += s
		runtime.GC()
		metrics.Read(heap)
		live += heap[0].Value.Uint64()
		runtime.KeepAlive(e)
		b.StartTimer()
	}
	b.StopTimer()
	appends := float64(b.N * appendBenchAppends)
	b.ReportMetric(float64(reused)/appends, "reused/append")
	b.ReportMetric(float64(reseeded)/appends, "reseeded/append")
	b.ReportMetric(float64(carry.Nanoseconds())/appends, "carry-ns")
	b.ReportMetric(float64(live)/float64(b.N)/1e6, "live-MB")
}

func BenchmarkRankedAppendRebuild(b *testing.B) {
	tr, full := appendBenchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		grown := full.Window(1, appendBenchStart)
		b.StartTimer()
		for j := 0; j < appendBenchAppends; j++ {
			grown = appendBenchStep(b, full, grown)
			drainAppendBench(b, NewEnumerator(tr, grown))
		}
	}
}
