// Benchmark pair for the weight-pushed pruned kernel: the same RFID
// top-10 drain through the bounded path and the exhaustive reference,
// feeding `make bench` / BENCH_ranked.json. The tables and the
// enumerator, with the potentials it computes on its first resolve, are
// rebuilt per iteration, so each iteration pays the full serving cost
// including the one-time backward potential sweep — the speedup shown
// is the end-to-end one a cold query sees. The enumerator's counters
// (cells pruned, cells visited, occupancy, handles and the layers they
// materialized) land in the result's "extra" map for EXPERIMENTS.md and
// cmd/benchcmp, with live-MB, the live heap while the last drained
// enumerator — its checkpoints included — is still referenced.
package ranked

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"markovseq/internal/kernel"
)

// benchPrunedDrain drains the top-benchTopK answers of the n=200 RFID
// workload once per iteration, pruned (NewEnumerator's mode at this
// length) or exhaustive, and reports the final iteration's enumerator
// counters (pruning counters all zero when exhaustive) and the live heap
// after it (read after a forced GC with the timer stopped).
func benchPrunedDrain(b *testing.B, prune bool) {
	tr, m := rfidRankedWorkload(b, 200)
	mk := NewEnumerator
	if !prune {
		mk = exhaustive
	}
	b.ReportAllocs()
	b.ResetTimer()
	var e *Enumerator
	for i := 0; i < b.N; i++ {
		e = mk(tr, m, WithTables(kernel.NewNFATables(tr)))
		if got := drainAnswers(e.Next, benchTopK); len(got) < benchTopK {
			b.Fatalf("drained %d answers, want %d", len(got), benchTopK)
		}
	}
	b.StopTimer()
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	metrics.Read(heap)
	runtime.KeepAlive(e)
	b.ReportMetric(float64(heap[0].Value.Uint64())/1e6, "live-MB")
	st := e.PruneStats()
	b.ReportMetric(float64(st.PrunedCells), "pruned-cells/op")
	b.ReportMetric(float64(st.VisitedCells), "visited-cells/op")
	if total := st.PrunedCells + st.VisitedCells; total > 0 {
		b.ReportMetric(float64(st.PrunedCells)/float64(total)*100, "pruned-pct")
	}
	// PR 8 counters: bounded candidate selection (crossing candidates
	// recorded vs. dropped against the running bound, boundary cells whose
	// whole fan-out was skipped) and lazy checkpoint materialization
	// (layers relaxed on demand; the deferred gap is the DP the drain
	// never paid for).
	b.ReportMetric(float64(st.CandsSelected), "cands-selected/op")
	b.ReportMetric(float64(st.CandsSkipped), "cands-skipped/op")
	b.ReportMetric(float64(st.BoundaryCellsSkipped), "cells-skipped/op")
	b.ReportMetric(float64(st.LazyLayers), "lazy-layers/op")
	if st.LazyHandles > 0 {
		deferred := st.LazyHandles*uint64(m.Len()) - st.LazyLayers
		b.ReportMetric(float64(deferred), "ck-layers-deferred/op")
	}
}

func BenchmarkRankedPruned(b *testing.B)     { benchPrunedDrain(b, true) }
func BenchmarkRankedExhaustive(b *testing.B) { benchPrunedDrain(b, false) }

// TestPrunedBenchWorkloadSmoke keeps the benchmark pair honest under
// plain `go test`: both paths emit the identical top-10 on the n=200
// workload the speedup is quoted for.
func TestPrunedBenchWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("n=200 drain in -short mode")
	}
	tr, m := rfidRankedWorkload(t, 200)
	got := drainAnswers(NewEnumerator(tr, m).Next, benchTopK)
	want := drainAnswers(exhaustive(tr, m).Next, benchTopK)
	assertSameAnswerSequence(t, "rfid n=200 top-10", got, want)
}
