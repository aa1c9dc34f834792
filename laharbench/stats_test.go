package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100, 99, …, 1: unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1}, {0, 1}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("nearestRank sorted its input")
	}
	if got := nearestRank([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("no samples should give NaN")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {500, 0.98}, {100, 0.9}} {
		q := tailQuantile(c.n)
		if math.Abs(q-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, q, c.want)
		}
		// Nearest rank leaves exactly ten samples beyond the tail when the
		// tail is below p99.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if beyond := c.n - int(nearestRank(xs, q)); c.n <= 1000 && beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail quantile, want 10", c.n, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// TestSlowestReadsTheSlowedLevel shows the point of the slow stretches: a
// run of requests of ten kinds, some in a quiet stretch of the machine, the
// rest slowed 1.7× by a neighbour. Whether a fifth or four fifths of the run
// were slowed moves its overall median but not the median of its slowest
// windows, which reads the slowed level either way.
func TestSlowestReadsTheSlowedLevel(t *testing.T) {
	run := func(slowed int) []float64 {
		lat := make([]float64, 30000)
		for i := range lat {
			lat[i] = 1 + float64(i%10)/10
			if i >= len(lat)-slowed {
				lat[i] *= 1.7
			}
		}
		return lat
	}
	few, many := run(6000), run(24000)
	if a, b := nearestRank(few, 0.5), nearestRank(many, 0.5); a == b {
		t.Errorf("overall median = %v with a fifth and with four fifths of the run slowed; the slowed stretch should have moved it", a)
	}
	want := (1 + 4.0/10) * 1.7
	for _, lat := range [][]float64{few, many} {
		idx := slowest(lat)
		if len(idx) != 3000 {
			t.Fatalf("%d slow requests, want a tenth of the run's 300 windows", len(idx))
		}
		if got := nearestRank(pick(lat, idx), 0.5); got != want {
			t.Errorf("median over the slowest windows = %v, want the slowed level %v", got, want)
		}
	}
}

// TestSlowestPoolSize checks that a short run still pools slowMin requests,
// in run order, and that a remainder shorter than a window is left out.
func TestSlowestPoolSize(t *testing.T) {
	lat := make([]float64, 50*window+window/2)
	for i := range lat {
		lat[i] = float64(i % 977)
	}
	idx := slowest(lat)
	if len(idx) != slowMin {
		t.Fatalf("%d slow requests from 50 windows, want %d", len(idx), slowMin)
	}
	for k := 1; k < len(idx); k++ {
		if idx[k] <= idx[k-1] {
			t.Fatalf("slow requests out of run order at %d: %d after %d", k, idx[k], idx[k-1])
		}
	}
	if last := idx[len(idx)-1]; last >= 50*window {
		t.Errorf("request %d of the remainder was pooled", last)
	}
}

// TestSegmentQuantiles checks that a segment of 1000 requests gives its
// own p99, and a shorter one the highest quantile it resolves.
func TestSegmentQuantiles(t *testing.T) {
	seg := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	got := segmented{seg(1000), seg(300)}.quantiles(0.99)
	if len(got) != 2 || got[0] != 990 || got[1] != 290 {
		t.Errorf("p99 of segments of 1000 and 300 samples = %v, want [990 290]: ten samples beyond each", got)
	}
}

// TestCounterAcrossEpochResets feeds a counter the readings a run takes:
// the owner (engine, enumerator, sweeper) restarts from zero at every
// epoch, and one snapshot vanishes mid-request.
func TestCounterAcrossEpochResets(t *testing.T) {
	var c counter
	// Epoch 1: the warm drain left the owner at 7; two requests add 10 each.
	c.add(7, 17)
	c.add(17, 27)
	// Epoch 2: a fresh owner, warmed to 5, then two requests of 10.
	c.add(5, 15)
	c.add(15, 25)
	// The owner restarted within the request: its end reading is all new.
	c.add(25, 10)
	if c.sum != 50 || c.reqs != 5 {
		t.Fatalf("sum %d over %d requests, want 50 over 5", c.sum, c.reqs)
	}
	if got := c.perReq(); got != 10 {
		t.Errorf("per request = %v, want 10", got)
	}
	cs := counters{}
	cs.add("a", 0, 3)
	cs.add("b", 0, 4)
	if got := cs.ratio("a", "b", 100); got != 75 {
		t.Errorf("ratio = %v, want 75", got)
	}
	if got := cs.ratio("a", "missing", 1); got != 0 {
		t.Errorf("ratio over a counter never read = %v, want 0", got)
	}
}
