// Sparse sliding-window benchmark for `make bench` / BENCH_sliding.json:
// a sweep where about half the windows have no answer, the case an
// emptiness test ahead of ranking would skip. It uses only the public
// facade, so the same file measures any revision of the sliding path.
package msq

import (
	"math/rand"
	"testing"
)

// BenchmarkSlidingTopKSparse sweeps the sparse stream of the sliding
// tests (internal/lahar TestSlidingSparseGateFindsEmptyWindows): RFID
// Hospital(3,2) at low noise (Miss 0.02, Confuse 0, Dwell 0.5), n = 200,
// seed 7, with the rarely visited trigger room "r3"; window 8, stride 1,
// k = 3, so 99 of its 193 windows are answerless. Like
// BenchmarkSlidingTopK, every iteration re-stores the stream first and
// sweeps cold. It reports windows/sec and the number of answerless
// windows.
func BenchmarkSlidingTopKSparse(b *testing.B) {
	f := Hospital(3, 2)
	h := HospitalHMM(f, RFIDNoise{Miss: 0.02, Confuse: 0, Dwell: 0.5})
	tr, err := SimulateRFID(h, 200, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	const window, stride, k = 8, 1, 3
	db := NewDB()
	db.RegisterTransducer("lab", PlaceTransducer(f, "r3"))
	windows, answerless := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := db.PutStream("cart", tr.Seq); err != nil { // cold: new stream version
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := db.SlidingTopK("cart", "lab", window, stride, k)
		if err != nil {
			b.Fatal(err)
		}
		windows, answerless = len(res), 0
		for _, w := range res {
			if w.Top == nil {
				answerless++
			}
		}
	}
	b.ReportMetric(float64(windows)*float64(b.N)/b.Elapsed().Seconds(), "windows/sec")
	b.ReportMetric(float64(answerless), "answerless-windows")
}
