package main

import (
	"math"
	"sort"

	"markovseq/internal/kernel"
)

// nearestRank returns the q-quantile of xs by the nearest-rank method: the
// smallest sample with at least q·n samples at or below it. xs is not
// modified; NaN for no samples.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q * float64(len(s))))
	r = max(1, min(r, len(s)))
	return s[r-1]
}

// tailQuantile is the highest quantile, at most 0.99, that n samples resolve
// with at least ten samples beyond it: 0.99 from 1000 samples on.
func tailQuantile(n int) float64 {
	return min(0.99, 1-10/float64(n))
}

// median returns the median of xs (the mean of the middle two for an even
// count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// segmented is one metric's samples, cut into the segments of a run.
type segmented [][]float64

func (sg segmented) all() []float64 {
	var out []float64
	for _, s := range sg {
		out = append(out, s...)
	}
	return out
}

// values returns f of every segment.
func (sg segmented) values(f func([]float64) float64) []float64 {
	vals := make([]float64, len(sg))
	for i, s := range sg {
		vals[i] = f(s)
	}
	return vals
}

// quantiles returns the q-quantile of every segment, or the highest
// quantile it resolves with ten samples beyond it.
func (sg segmented) quantiles(q float64) []float64 {
	return sg.values(func(s []float64) float64 { return nearestRank(s, min(q, tailQuantile(len(s)))) })
}

// The latency metrics of a run are computed over its slow stretches: its
// requests are cut, in the order they ran, into windows of window requests,
// and the slowest slowShare of the windows by median latency, at least
// slowMin requests' worth, are pooled. Neighbours on the shared host slow
// the same code 1.6–1.9× for stretches of seconds to many minutes; a run's
// overall quantiles then report how much of it fell in a quiet stretch,
// while nearly every run holds a tenth of slowed windows, and their level
// repeats. slowMin leaves twenty samples beyond the pooled p99.
const (
	window    = 100
	slowShare = 0.1
	slowMin   = 2000
)

// slowest returns the indices, in run order, of the requests in the run's
// slowest windows by median latency. A remainder shorter than a window
// belongs to no window.
func slowest(lat []float64) []int {
	n := len(lat) / window
	type win struct {
		start int
		p50   float64
	}
	wins := make([]win, n)
	for k := range wins {
		wins[k] = win{k * window, nearestRank(lat[k*window:(k+1)*window], 0.5)}
	}
	sort.SliceStable(wins, func(a, b int) bool { return wins[a].p50 > wins[b].p50 })
	take := min(n, max(int(math.Ceil(slowShare*float64(n))), slowMin/window))
	wins = wins[:take]
	sort.Slice(wins, func(a, b int) bool { return wins[a].start < wins[b].start })
	idx := make([]int, 0, take*window)
	for _, w := range wins {
		for i := w.start; i < w.start+window; i++ {
			idx = append(idx, i)
		}
	}
	return idx
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}

// counter accumulates the per-request increments of a cumulative counter.
// The layers' counters restart from zero whenever their owner is replaced —
// a store drops the engines of a replaced stream, each epoch starts a fresh
// enumerator or sweeper — so a request's increment is taken between a
// reading at its start and one at its end, never across an epoch boundary,
// and an end reading below the start one means the owner restarted within
// the request: all of the end reading is the increment.
type counter struct {
	sum  uint64
	reqs int
}

// add records one request's readings at its start and its end.
func (c *counter) add(before, after uint64) {
	if after >= before {
		c.sum += after - before
	} else {
		c.sum += after
	}
	c.reqs++
}

// perReq returns the mean increment per request.
func (c *counter) perReq() float64 {
	if c.reqs == 0 {
		return 0
	}
	return float64(c.sum) / float64(c.reqs)
}

// counters holds a workload's per-request counters by name.
type counters map[string]*counter

func (cs counters) add(name string, before, after uint64) {
	c := cs[name]
	if c == nil {
		c = &counter{}
		cs[name] = c
	}
	c.add(before, after)
}

func (cs counters) perReq(name string) float64 {
	if c := cs[name]; c != nil {
		return c.perReq()
	}
	return 0
}

// ratio returns the sum of counter num over that of den, scaled; 0 when den
// never moved.
func (cs counters) ratio(num, den string, scale float64) float64 {
	n, d := cs[num], cs[den]
	if n == nil || d == nil || d.sum == 0 {
		return 0
	}
	return scale * float64(n.sum) / float64(d.sum)
}

// addKernel records one request's kernel pruning counters.
func (cs counters) addKernel(before, after kernel.PruneStats) {
	cs.add("kernel.resolves_per_req", before.Resolves, after.Resolves)
	cs.add("kernel.visited_cells_per_req", before.VisitedCells, after.VisitedCells)
	cs.add("kernel.cells", before.VisitedCells+before.PrunedCells, after.VisitedCells+after.PrunedCells)
	cs.add("kernel.pruned", before.PrunedCells, after.PrunedCells)
	cs.add("kernel.layers", before.LazyLayers, after.LazyLayers)
	cs.add("kernel.handles", before.LazyHandles, after.LazyHandles)
}

// kernelMetrics fills the kernel counter metrics into m.
func (cs counters) kernelMetrics(m map[string]float64) {
	m["kernel.resolves_per_req"] = cs.perReq("kernel.resolves_per_req")
	m["kernel.visited_cells_per_req"] = cs.perReq("kernel.visited_cells_per_req")
	m["kernel.pruned_pct"] = cs.ratio("kernel.pruned", "kernel.cells", 100)
	m["kernel.layers_per_handle"] = cs.ratio("kernel.layers", "kernel.handles", 1)
}
