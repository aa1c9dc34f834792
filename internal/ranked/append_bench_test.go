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
// BenchmarkRankedAppendLongRun is the incremental script run long, on the
// trace the long-run probe grows (seed 1): longRunAppends appends, after
// which live-MB is what a stream that keeps growing retains.
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
	longRunAppends     = 300 // appends per op of the long-run script
)

// appendBenchWorkload simulates an RFID trace from seed, long enough for
// appends past the starting prefix.
func appendBenchWorkload(b *testing.B, seed int64, appends int) (*transducer.Transducer, *markov.Sequence) {
	b.Helper()
	f := rfid.Hospital(4, 2)
	h := rfid.BuildHMM(f, rfid.DefaultNoise)
	trc, err := rfid.Simulate(h, appendBenchStart+appends, rand.New(rand.NewSource(seed)))
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

// benchAppendScript runs the incremental script appends long, b.N times,
// and reports carry-ns and live-MB (see the file comment); it returns the
// reuse counters summed over ops.
func benchAppendScript(b *testing.B, seed int64, appends int) (reused, reseeded uint64) {
	tr, full := appendBenchWorkload(b, seed, appends)
	var live uint64
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
		for j := 0; j < appends; j++ {
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
	b.ReportMetric(float64(carry.Nanoseconds())/float64(b.N*appends), "carry-ns")
	b.ReportMetric(float64(live)/float64(b.N)/1e6, "live-MB")
	return reused, reseeded
}

func BenchmarkRankedAppendIncremental(b *testing.B) {
	reused, reseeded := benchAppendScript(b, 31, appendBenchAppends)
	appends := float64(b.N * appendBenchAppends)
	b.ReportMetric(float64(reused)/appends, "reused/append")
	b.ReportMetric(float64(reseeded)/appends, "reseeded/append")
}

func BenchmarkRankedAppendLongRun(b *testing.B) { benchAppendScript(b, 1, longRunAppends) }

func BenchmarkRankedAppendRebuild(b *testing.B) {
	tr, full := appendBenchWorkload(b, 31, appendBenchAppends)
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
