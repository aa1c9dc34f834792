package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"
)

// Set at build time by run.sh.
var commit, source = "none", "none"

// runLimit bounds one invocation: a request still waiting for the store
// when it passes fails the run instead of hanging it.
const runLimit = 170 * time.Second

// checkEvery samples the requests whose answers are checked against a
// reference built from scratch: those whose index is a multiple of it. A
// prime, so the sample walks through every stream and epoch position.
const checkEvery = 97

// An untraced run builds its store at least setupRepeats times, and until
// the set-ups have taken setupTotal, then once more before every segment
// after the first; setup_s is the value a tenth of them exceed, read from the
// slow end like the latency metrics, because single set-ups drift by 6–20%
// and with the machine's speed.
const (
	setupRepeats = 5
	setupTotal   = 2 * time.Second
)

// sample is one request's outcome: its latency, the time until its first
// answer returned, and a digest of its answers.
type sample struct {
	lat, first float64 // milliseconds
	digest     uint64
}

// workload is one closed loop of single-kind requests over one store. Its
// script is cut into epochs of cycle() requests; stream state is replaced
// between epochs, outside the timed requests. The inputs repeat every pool()
// epochs, and those epochs form a segment: every segment of a run does the
// same work, so segments differ only by what the machine did to them, and a
// run ends on a segment boundary.
type workload interface {
	// cycle is the number of requests in one epoch.
	cycle() int
	// pool is the number of epochs before the inputs repeat; pool()·cycle()
	// is at least 1000, so that a segment resolves its own p99.
	pool() int
	// setup builds a fresh store ready for epoch e and returns the time the
	// build took, inputs excluded.
	setup(ctx context.Context, e int) (time.Duration, error)
	// epoch brings the store to the start of epoch e, untimed.
	epoch(ctx context.Context, e int) error
	// request runs request i of the script, recording its pass-A spans in
	// tr when tr is not nil; untraced requests record their answers.
	request(ctx context.Context, i int, tr *tracer) (sample, error)
	// check compares the answers recorded for the sampled untraced
	// requests with references built from public functions, and returns
	// the requests that failed.
	check() (map[int]error, error)
	// replay runs epoch e's requests from a fresh state one layer down the
	// stack (pass "B") or two (pass "C"), recording spans in tr, and
	// returns each request's answer digest.
	replay(ctx context.Context, pass string, e int, tr *tracer) ([]uint64, error)
	// layers derives the workload's per-layer metrics from the spans of n
	// requests and the counters its passes read.
	layers(tr *tracer, n int) map[string]float64
	// close stops whatever the store started.
	close()
}

var workloads = map[string]func(*inputs) workload{
	"append-rank":  newAppendRank,
	"cold-rank":    newColdRank,
	"ingest-watch": newIngestWatch,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	bad map[int]error
}

// perLayer lists every per-layer metric with its unit; a workload that does
// not exercise a layer reports 0 for it.
var perLayer = [][2]string{
	{"lahar.topk_ms", "ms"}, {"lahar.append_ms", "ms"}, {"lahar.conf_ms", "ms"},
	{"lahar.ingest_ms", "ms"}, {"lahar.deliver_ms", "ms"}, {"lahar.self_ms", "ms"},
	{"lahar.extensions_per_req", "count"}, {"lahar.misses_per_req", "count"},
	{"core.extend_ms", "ms"}, {"core.bind_ms", "ms"}, {"core.first_ms", "ms"},
	{"core.rest_ms", "ms"}, {"core.conf_ms", "ms"}, {"core.window_ms", "ms"}, {"core.self_ms", "ms"},
	{"ranked.carry_ms", "ms"}, {"ranked.next_ms", "ms"}, {"ranked.sweep_ms", "ms"},
	{"ranked.reseeded_per_req", "count"}, {"ranked.reused_per_req", "count"},
	{"kernel.bounds_ms", "ms"}, {"kernel.gate_ms", "ms"}, {"kernel.conf_ms", "ms"},
	{"kernel.resolves_per_req", "count"}, {"kernel.visited_cells_per_req", "count"},
	{"kernel.pruned_pct", "%"}, {"kernel.layers_per_handle", "count"},
	{"markov.extend_us", "us"}, {"hmm.observe_us", "us"},
	{"runtime.alloc_kb_per_req", "KB"}, {"runtime.gc_cpu_pct", "%"},
	{"trace.overhead_ms", "ms"}, {"trace.overhead_pct", "%"},
}

func main() {
	name := flag.String("workload", "", "append-rank, cold-rank or ingest-watch")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 replays the script layer by layer and reports the per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	// One client goroutine on one processor: with a second one the
	// collector and the watchers' pumps ran beside the client only while
	// the shared host left that vCPU free, and request latency switched
	// between two levels 1.6× apart with it.
	runtime.GOMAXPROCS(1)
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "laharbench: need -workload (append-rank, cold-rank, ingest-watch), -seconds > 0 and -trace 0 or 1\n")
		os.Exit(2)
	}
	res, err := run(*name, mk(newInputs(*seed)), *seed, *seconds, *traced == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "laharbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "laharbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func stream(s int) string { return "s" + strconv.Itoa(s) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// meta prints one line of run metadata; the result is always the last line.
func meta(key string, v any) {
	b, _ := json.Marshal(v) // plain values only
	fmt.Printf("# %s: %s\n", key, b)
}

func run(name string, w workload, seed int64, seconds float64, traced bool, spanDir string) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	defer w.close()
	meta("run", map[string]any{"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"commit": commit, "source": source, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU()})
	calBefore := calibrate()
	budget := time.Duration(seconds * float64(time.Second))
	var res *result
	var err error
	if traced {
		res, err = tracedRun(ctx, w, budget, filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	} else {
		res, err = untracedRun(ctx, w, budget)
	}
	if err != nil {
		return nil, err
	}
	meta("calibration_ms", map[string]float64{"before": calBefore, "after": calibrate()})
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return res, nil
}

// untracedRun measures the end-to-end metrics: set-up several times, then
// the script segment by segment for as many whole segments as fit in budget,
// each segment from a fresh set-up, so that set-ups are sampled throughout
// the run.
func untracedRun(ctx context.Context, w workload, budget time.Duration) (*result, error) {
	var setups []float64
	setup := func(e int) error {
		w.close()
		runtime.GC()
		d, err := w.setup(ctx, e)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		return nil
	}
	for total := 0.0; len(setups) < setupRepeats || total < setupTotal.Seconds(); total += setups[len(setups)-1] {
		if err := setup(0); err != nil {
			return nil, err
		}
	}
	ph := newPhase()
	var heaps []float64
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	start := time.Now()
	for e := 0; ; e++ {
		switch segs := e / w.pool(); {
		case e == 0:
		case e%w.pool() != 0:
			if err := w.epoch(ctx, e); err != nil {
				return nil, fmt.Errorf("epoch %d: %w", e, err)
			}
		case time.Since(start)*time.Duration(segs+1)/time.Duration(segs) > budget:
			// Another segment of the average length would end past the
			// budget.
			goto done
		default:
			if err := setup(e); err != nil {
				return nil, err
			}
		}
		if err := ph.epoch(ctx, w, e, nil); err != nil {
			return nil, err
		}
		// The live heap at every epoch's end, the store still referenced:
		// the state an epoch retains depends on its traces, so one reading
		// would move with the last epoch's.
		runtime.GC()
		metrics.Read(live)
		heaps = append(heaps, float64(live[0].Value.Uint64())/(1<<20))
	}
done:
	runtime.KeepAlive(w)
	res, err := checked(w, ph.digests, ph.failed)
	if err != nil {
		return nil, err
	}
	idx := slowest(ph.lat.all())
	lat, first := pick(ph.lat.all(), idx), pick(ph.first.all(), idx)
	res.Metrics["setup_s"] = metric{nearestRank(setups, 1-slowShare), "s"}
	res.Metrics["latency_p50_ms"] = metric{nearestRank(lat, 0.5), "ms"}
	res.Metrics["latency_p99_ms"] = metric{nearestRank(lat, 0.99), "ms"}
	res.Metrics["first_p50_ms"] = metric{nearestRank(first, 0.5), "ms"}
	res.Metrics["throughput_rps"] = metric{float64(len(lat)) / (sum(lat) / 1e3), "1/s"}
	res.Metrics["heap_live_mb"] = metric{median(heaps), "MB"}
	meta("samples", map[string]any{"requests": res.Attempted, "slow_requests": len(lat), "segments": len(ph.lat),
		"timed_s": ph.wall.Seconds(), "run_s": time.Since(start).Seconds(), "setup_s": setups})
	meta("segment_p50_ms", ph.lat.quantiles(0.5))
	meta("segment_p99_ms", ph.lat.quantiles(0.99))
	meta("segment_first_p50_ms", ph.first.quantiles(0.5))
	meta("epoch_heap_live_mb", heaps)
	return res, nil
}

// tracedRun measures the per-layer metrics. Every epoch of the script runs
// four times in a row, each from the epoch's start and a collected heap:
// untraced, then passes A, B and C, so that the passes a self time
// subtracts run seconds apart, a neighbour's burst lands on all of them
// alike, and none pays for collecting another's garbage.
func tracedRun(ctx context.Context, w workload, budget time.Duration, spanPath string) (*result, error) {
	// A throwaway epoch first warms the process — code, caches, heap — so
	// that the first untraced epoch does not pay for it alone.
	if _, err := w.setup(ctx, 0); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := newPhase().epoch(ctx, w, 0, nil); err != nil {
		return nil, err
	}
	tr := newTracer()
	u, a := newPhase(), newPhase()
	var digs [2][]uint64 // passes B and C
	start := time.Now()
	for e := 0; e == 0 || time.Since(start)*time.Duration(e+1)/time.Duration(e) <= budget; e++ {
		// Odd epochs run the passes in reverse, so that a drift across an
		// epoch's four runs cancels out of the self times.
		order := "UABC"
		if e%2 == 1 {
			order = "CBAU"
		}
		for _, pass := range order {
			w.close()
			runtime.GC()
			tr.pass = string(pass)
			switch pass {
			case 'U', 'A':
				ph, ptr := u, (*tracer)(nil)
				if pass == 'A' {
					ph, ptr = a, tr
				}
				if _, err := w.setup(ctx, e); err != nil {
					return nil, fmt.Errorf("setup: %w", err)
				}
				if err := ph.epoch(ctx, w, e, ptr); err != nil {
					return nil, err
				}
			default:
				d, err := w.replay(ctx, string(pass), e, tr)
				if err != nil {
					return nil, fmt.Errorf("pass %c, epoch %d: %w", pass, e, err)
				}
				digs[pass-'B'] = append(digs[pass-'B'], d...)
			}
		}
	}
	w.close()
	res, err := checked(w, u.digests, u.failed)
	if err != nil {
		return nil, err
	}
	n := res.Attempted
	for i, want := range u.digests {
		for p, d := range [][]uint64{a.digests, digs[0], digs[1]} {
			if d[i] != want {
				res.fail(i, fmt.Errorf("pass %c answered differently from the untraced run", "ABC"[p]))
			}
		}
	}
	for i, e := range a.failed {
		res.fail(i, e)
	}
	layers := w.layers(tr, n)
	layers["runtime.alloc_kb_per_req"] = float64(u.allocBytes) / float64(n) / 1024
	layers["runtime.gc_cpu_pct"] = 100 * u.gcCPU / u.wall.Seconds()
	untraced, passA := nearestRank(u.lat.all(), 0.5), tr.p50("A", "request", n)
	layers["trace.overhead_ms"] = passA - untraced
	layers["trace.overhead_pct"] = 100 * (passA - untraced) / untraced
	for _, m := range perLayer {
		res.Metrics[m[0]] = metric{layers[m[0]], m[1]}
	}
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	meta("trace", map[string]any{"requests": n, "segments": len(u.lat), "spans": len(tr.spans), "file": spanPath,
		"untraced_p50_ms": untraced, "pass_a_p50_ms": passA})
	meta("segment_p50_ms", u.lat.quantiles(0.5))
	return res, nil
}

// checked starts a result for the requests whose digests a run recorded,
// counting as failed the requests that errored and those whose answers
// differ from the references the workload builds.
func checked(w workload, digests []uint64, failed map[int]error) (*result, error) {
	res := &result{Attempted: len(digests), Correct: true, Metrics: map[string]metric{}, bad: map[int]error{}}
	bad, err := w.check()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	for i, e := range bad {
		res.fail(i, e)
	}
	for i, e := range failed {
		res.fail(i, e)
	}
	return res, nil
}

// fail counts request i as failed, once, and reports the first few.
func (r *result) fail(i int, err error) {
	if _, seen := r.bad[i]; seen {
		return
	}
	r.bad[i] = err
	r.Failed, r.Correct = len(r.bad), false
	if r.Failed <= 5 {
		fmt.Fprintf(os.Stderr, "laharbench: request %d failed: %v\n", i, err)
	}
}

// phase accumulates one kind of run of the script — untraced, or pass A —
// epoch by epoch.
type phase struct {
	lat, first segmented
	digests    []uint64 // per request; 0 for a failed one
	failed     map[int]error
	wall       time.Duration // spent in the epochs' requests
	gcCPU      float64       // GC CPU seconds over them
	allocBytes uint64        // bytes allocated inside them
}

func newPhase() *phase { return &phase{failed: map[int]error{}} }

// epoch runs epoch e's requests on w's store, which the caller has brought
// to the epoch's start, recording their spans in tr when tr is not nil.
func (ph *phase) epoch(ctx context.Context, w workload, e int, tr *tracer) error {
	cyc := w.cycle()
	lat, first := make([]float64, 0, cyc), make([]float64, 0, cyc)
	rt := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(rt)
	a0, g0 := rt[0].Value.Uint64(), rt[1].Value.Float64()
	t0 := time.Now()
	for j := 0; j < cyc; j++ {
		i := e*cyc + j
		s, err := w.request(ctx, i, tr)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
			ph.failed[i] = err
			ph.digests = append(ph.digests, 0)
			continue
		}
		lat, first = append(lat, s.lat), append(first, s.first)
		ph.digests = append(ph.digests, s.digest)
	}
	ph.wall += time.Since(t0)
	metrics.Read(rt)
	ph.allocBytes += rt[0].Value.Uint64() - a0
	ph.gcCPU += rt[1].Value.Float64() - g0
	if e%w.pool() == 0 {
		ph.lat, ph.first = append(ph.lat, nil), append(ph.first, nil)
	}
	k := len(ph.lat) - 1
	ph.lat[k], ph.first[k] = append(ph.lat[k], lat...), append(ph.first[k], first...)
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

var calibSink int32

// calibrate times a fixed cache-resident loop: a pointer chase through a
// 2 MiB cycle, which fits the last-level cache. Its time depends only on
// the machine — a neighbour thrashing the shared cache, frequency — never
// on the code under test, so a run whose calibration times stand out from
// other runs' fell inside a burst. Metadata, never a metric.
func calibrate() float64 {
	const n = 1 << 19
	next := make([]int32, n)
	for i := range next {
		next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	p := int32(0)
	for i := 0; i < n; i++ { // warm the cache
		p = next[p]
	}
	t0 := time.Now()
	for i := 0; i < 4*n; i++ {
		p = next[p]
	}
	calibSink = p
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

var errWrongAnswer = errors.New("wrong answer")
