package lahar

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/rfid"
	"markovseq/internal/testutil"
	"markovseq/internal/textgen"
	"markovseq/internal/transducer"
)

// topKThroughTies drains the k best answers and then extends the drain
// through the last tied score class, so a comparison against another
// construction's k-drain can treat a k-boundary that splits a tie class
// as a set membership question rather than an exact-rank one.
func topKThroughTies(t *testing.T, db *DB, stream, q string, k int) []Result {
	t.Helper()
	out, err := db.TopK(stream, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < k {
		return out
	}
	classScore := out[k-1].Score
	for kk := k + 1; ; kk++ {
		next, err := db.TopK(stream, q, kk)
		if err != nil {
			t.Fatal(err)
		}
		if len(next) < kk {
			return next
		}
		if next[kk-1].Score != classScore {
			return next[:kk-1]
		}
	}
}

// assertTopKMatches requires got (a k-drain) to agree with want (a
// drain extended through its final tie class, see topKThroughTies) rank
// by rank on bit-identical scores, and set-identically within every
// maximal run of equal scores — where scores strictly decrease this
// forces identical answers at every rank. Order inside an exact-tie
// class is construction-dependent by design: a from-scratch ranked
// drain discovers some tied answers only as Lawler children of emitted
// tied parents, which a cross-append reseed cannot reproduce without
// abandoning lazy resolution (see ranked.ExtendEnumerator).
func assertTopKMatches(t *testing.T, label string, got, want []Result, k int) {
	t.Helper()
	if len(got) == 0 {
		if len(want) != 0 {
			t.Fatalf("%s: got no answers, want %d", label, len(want))
		}
		return
	}
	n := k
	if n > len(want) {
		n = len(want)
	}
	if len(got) != n {
		t.Fatalf("%s: got %d answers, want %d (k=%d)", label, len(got), n, k)
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			t.Fatalf("%s rank %d: score %v, want %v (must be bit-identical)", label, i, got[i].Score, want[i].Score)
		}
	}
	key := func(r Result) string {
		return fmt.Sprintf("%v|%d|%d", r.Output, r.Index, r.Kind)
	}
	wantBy := map[float64]map[string]bool{}
	for _, r := range want {
		m := wantBy[r.Score]
		if m == nil {
			m = map[string]bool{}
			wantBy[r.Score] = m
		}
		m[key(r)] = true
	}
	gotClass := map[float64]int{}
	for i, r := range got {
		if !wantBy[r.Score][key(r)] {
			t.Fatalf("%s rank %d: answer %v (score %v) not among the reference answers of that score", label, i, r.Output, r.Score)
		}
		gotClass[r.Score]++
	}
	last := got[len(got)-1].Score
	for s, c := range gotClass {
		if s != last && c != len(wantBy[s]) {
			t.Fatalf("%s: tie class at score %v has %d answers, reference has %d", label, s, c, len(wantBy[s]))
		}
	}
}

// eventsOf returns the events that grow full's length-from prefix to
// length to: appending TransAt(L) takes a stream from length L to L+1.
func eventsOf(full *markov.Sequence, from, to int) []Event {
	out := make([]Event, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, Event(full.TransAt(i)))
	}
	return out
}

// appendWorkload is one differential-grid workload: a full sequence and
// a factory stamping it (or a prefix of it) plus its query into a fresh
// store.
type appendWorkload struct {
	name string
	full *markov.Sequence
	mk   func(m *markov.Sequence, opts ...Option) *DB
}

func appendWorkloads(t *testing.T, n int) []appendWorkload {
	t.Helper()
	var out []appendWorkload

	out = append(out, rfidAppendWorkload(t, "rfid", rfid.DefaultNoise, "lab", n))

	rng := rand.New(rand.NewSource(7))
	ab := textgen.Alphabet()
	doc := textgen.Generate(8, 12, 3, rng)
	m := textgen.Noisy(ab, doc.Text, 0.1, rng)
	if m.Len() < n {
		t.Fatalf("textgen document too short: %d < %d", m.Len(), n)
	}
	outs := automata.MustAlphabet("x", "y")
	tr := transducer.New(ab, outs, 4, 0)
	for st := 0; st < 4; st++ {
		tr.SetAccepting(st, true)
		for _, s := range ab.Symbols() {
			var e []automata.Symbol
			if rng.Intn(2) == 0 {
				e = []automata.Symbol{automata.Symbol(rng.Intn(outs.Size()))}
			}
			tr.AddTransition(st, s, rng.Intn(4), e)
		}
	}
	out = append(out, appendWorkload{
		name: "textgen",
		full: m.Window(1, n),
		mk: func(m *markov.Sequence, opts ...Option) *DB {
			db := New(opts...)
			if err := db.PutStream("s", m); err != nil {
				t.Fatal(err)
			}
			db.RegisterTransducer("q", tr)
			return db
		},
	})
	return out
}

// TestAppendEventsDifferential is the tentpole differential suite: a
// stream grown event by event with AppendEvents must answer
// TopK/Confidence/SlidingTopK bit-identically (reflect.DeepEqual, float
// bits included) to a from-scratch PutStream of the full sequence, on
// the RFID and textgen grids.
func TestAppendEventsDifferential(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 30
	for _, wl := range appendWorkloads(t, n) {
		t.Run(wl.name, func(t *testing.T) {
			scratch := wl.mk(wl.full)
			for _, p := range []int{1, 7, n - 1} {
				inc := wl.mk(wl.full.Window(1, p))
				// Grow event by event, with a warm engine cache: query after
				// every append so the rebind path (not just the final state)
				// is the thing under test.
				for L := p; L < n; L++ {
					if _, err := inc.TopK("s", "q", 2); err != nil {
						t.Fatalf("p=%d L=%d: warm TopK: %v", p, L, err)
					}
					got, err := inc.AppendEvents("s", eventsOf(wl.full, L, L+1))
					if err != nil {
						t.Fatalf("p=%d: append at %d: %v", p, L, err)
					}
					if got != L+1 {
						t.Fatalf("p=%d: append at %d returned length %d", p, L, got)
					}
				}
				wantTop := topKThroughTies(t, scratch, "s", "q", 5)
				gotTop, err := inc.TopK("s", "q", 5)
				if err != nil {
					t.Fatal(err)
				}
				assertTopKMatches(t, fmt.Sprintf("p=%d TopK", p), gotTop, wantTop, 5)
				if len(wantTop) > 0 {
					want, err := scratch.Confidence("s", "q", wantTop[0].Output, 0)
					if err != nil {
						t.Fatal(err)
					}
					got, err := inc.Confidence("s", "q", wantTop[0].Output, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("p=%d: Confidence diverges: %v vs %v", p, got, want)
					}
				}
				for _, sweep := range [][2]int{{1, 1}, {4, 2}, {8, 3}, {n, 1}} {
					w, s := sweep[0], sweep[1]
					want, err := scratch.SlidingTopK("s", "q", w, s, 3)
					if err != nil {
						t.Fatalf("w=%d s=%d: scratch: %v", w, s, err)
					}
					got, err := inc.SlidingTopK("s", "q", w, s, 3)
					if err != nil {
						t.Fatalf("w=%d s=%d: incremental: %v", w, s, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("p=%d w=%d s=%d: SlidingTopK diverges", p, w, s)
					}
				}
			}
		})
	}
}

// TestAppendEventsBatchMatchesSingles: one batched append equals
// event-by-event appends.
func TestAppendEventsBatchMatchesSingles(t *testing.T) {
	const n = 20
	wl := appendWorkloads(t, n)[0]
	batch := wl.mk(wl.full.Window(1, 5))
	singles := wl.mk(wl.full.Window(1, 5))
	if _, err := batch.AppendEvents("s", eventsOf(wl.full, 5, n)); err != nil {
		t.Fatal(err)
	}
	for L := 5; L < n; L++ {
		if _, err := singles.AppendEvents("s", eventsOf(wl.full, L, L+1)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := batch.TopK("s", "q", 3)
	if err != nil {
		t.Fatal(err)
	}
	b := topKThroughTies(t, singles, "s", "q", 3)
	assertTopKMatches(t, "batch vs singles", a, b, 3)
}

// TestAppendKeepsEnginesWarm is the acceptance-criteria check: appending
// events must never invalidate or rebuild a prepared engine. Across a
// long run of append+query cycles the cache records exactly one miss
// (the first build), zero invalidations, and one O(1) rebind extension
// per append.
func TestAppendKeepsEnginesWarm(t *testing.T) {
	const n = 24
	wl := appendWorkloads(t, n)[0]
	db := wl.mk(wl.full.Window(1, 4))
	if _, err := db.TopK("s", "q", 2); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.Misses != 1 || s.Invalidations != 0 {
		t.Fatalf("after priming: %+v", s)
	}
	for L := 4; L < n; L++ {
		if _, err := db.AppendEvents("s", eventsOf(wl.full, L, L+1)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.TopK("s", "q", 2); err != nil {
			t.Fatal(err)
		}
		// A second query on the unchanged length must be a plain hit.
		if _, err := db.TopK("s", "q", 2); err != nil {
			t.Fatal(err)
		}
	}
	s := db.Stats()
	if s.Invalidations != 0 {
		t.Fatalf("appends invalidated engines: %+v", s)
	}
	if s.Misses != 1 {
		t.Fatalf("appends rebuilt engines from scratch: %+v", s)
	}
	if want := uint64(n - 4); s.Extensions != want {
		t.Fatalf("Extensions = %d, want %d (one rebind per append): %+v", s.Extensions, want, s)
	}
	if want := uint64(n - 4); s.Hits != want {
		t.Fatalf("Hits = %d, want %d (one warm repeat per append): %+v", s.Hits, want, s)
	}
}

// TestAppendEventsErrors: unknown streams, invalid events mid-batch
// (the applied prefix persists and stays queryable), and appends racing
// a PutStream replacement.
func TestAppendEventsErrors(t *testing.T) {
	const n = 12
	wl := appendWorkloads(t, n)[0]
	db := wl.mk(wl.full.Window(1, 4))

	if _, err := db.AppendEvents("ghost", eventsOf(wl.full, 4, 5)); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("unknown stream: %v", err)
	}

	k := wl.full.Nodes.Size()
	badRow := make([]float64, k) // sums to 0
	bad := make(Event, k)
	for i := range bad {
		bad[i] = badRow
	}
	events := eventsOf(wl.full, 4, 6)
	events = append(events, bad)
	events = append(events, eventsOf(wl.full, 6, 7)...)
	got, err := db.AppendEvents("s", events)
	if err == nil || !strings.Contains(err.Error(), "event 2") {
		t.Fatalf("invalid event: %v", err)
	}
	if got != 6 {
		t.Fatalf("applied prefix length = %d, want 6", got)
	}
	m, err := db.Stream("s")
	if err != nil || m.Len() != 6 {
		t.Fatalf("stream after partial append: len=%d err=%v", m.Len(), err)
	}
	want := wl.mk(wl.full.Window(1, 6))
	wres := topKThroughTies(t, want, "s", "q", 3)
	gres, err := db.TopK("s", "q", 3)
	if err != nil {
		t.Fatal(err)
	}
	assertTopKMatches(t, "partial append", gres, wres, 3)
}

// TestAppendEventsCancelMidAppend: cancellation between events keeps the
// applied prefix — the stream equals a from-scratch build of that prefix
// — and returns ctx.Err().
func TestAppendEventsCancelMidAppend(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 16
	wl := appendWorkloads(t, n)[0]

	// Already-cancelled context: nothing applied.
	db := wl.mk(wl.full.Window(1, 4))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := db.AppendEventsCtx(cancelled, "s", eventsOf(wl.full, 4, n))
	if !errors.Is(err, context.Canceled) || got != 4 {
		t.Fatalf("cancelled append: len=%d err=%v", got, err)
	}

	// Budgeted context: the append stops mid-batch with the prefix applied.
	sawPartial := false
	for _, budget := range []int{1, 3, 6} {
		db := wl.mk(wl.full.Window(1, 4))
		got, err := db.AppendEventsCtx(newCountingCtx(budget), "s", eventsOf(wl.full, 4, n))
		if err == nil {
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("budget %d: err = %v", budget, err)
		}
		if got <= 4 || got >= n {
			continue
		}
		sawPartial = true
		ref := wl.mk(wl.full.Window(1, got))
		want := topKThroughTies(t, ref, "s", "q", 3)
		have, err := db.TopK("s", "q", 3)
		if err != nil {
			t.Fatal(err)
		}
		assertTopKMatches(t, fmt.Sprintf("budget %d", budget), have, want, 3)
	}
	if !sawPartial {
		t.Fatal("no budget produced a strict mid-append prefix")
	}
}

// TestAppendEventsConcurrentWithQueries hammers one stream with an
// appender and concurrent readers; under -race this is the proof that
// queries always see a consistent snapshot while the sequence grows.
func TestAppendEventsConcurrentWithQueries(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 60
	wl := appendWorkloads(t, n)[0]
	db := wl.mk(wl.full.Window(1, 4))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (g + i) % 3 {
				case 0:
					if _, err := db.TopK("s", "q", 2); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := db.SlidingTopK("s", "q", 2, 2, 1); err != nil {
						t.Error(err)
					}
				default:
					if _, err := db.Stream("s"); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	for L := 4; L < n; L++ {
		if _, err := db.AppendEvents("s", eventsOf(wl.full, L, L+1)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	m, err := db.Stream("s")
	if err != nil || m.Len() != n {
		t.Fatalf("final stream: len=%d err=%v", m.Len(), err)
	}
}

// readDeltas receives exactly want deltas from the subscription,
// failing the test on a stall.
func readDeltas(t *testing.T, sub *Subscription, want int) []WindowResult {
	t.Helper()
	out := make([]WindowResult, 0, want)
	for len(out) < want {
		select {
		case d, ok := <-sub.C():
			if !ok {
				t.Fatalf("subscription closed after %d/%d deltas: %v", len(out), want, sub.Err())
			}
			if d.Stream != "s" {
				t.Fatalf("delta for stream %q", d.Stream)
			}
			out = append(out, d.WindowResult)
		case <-time.After(10 * time.Second):
			t.Fatalf("stalled after %d/%d deltas", len(out), want)
		}
	}
	return out
}

// windowsIn counts the complete windows of an n-position stream.
func windowsIn(n, window, stride int) int {
	if n < window {
		return 0
	}
	return (n-window)/stride + 1
}

// TestWatchSlidingTopKMatchesSliding: a subscription fed by appends
// delivers, in window order, exactly the WindowResults a from-scratch
// SlidingTopK computes over the final stream — catch-up windows and
// live appends alike.
func TestWatchSlidingTopKMatchesSliding(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 30
	for _, wl := range appendWorkloads(t, n) {
		t.Run(wl.name, func(t *testing.T) {
			for _, sweep := range [][2]int{{4, 2}, {1, 1}, {8, 3}} {
				watchMatchesSliding(t, wl, 10, sweep[0], sweep[1], 2)
			}
		})
	}
	// The sparse stream of TestSlidingSparseGateFindsEmptyWindows, whose
	// answerless windows the watcher must deliver with a nil Top, on both
	// sides of kernel.BoundsMinN: the unpruned sweeper at window 8 and the
	// pruned one at window 32.
	t.Run("sparse", func(t *testing.T) {
		wl := rfidAppendWorkload(t, "sparse", rfid.Noise{Miss: 0.02, Confuse: 0, Dwell: 0.5}, "r3", 200)
		for _, window := range []int{8, 32} {
			empty, full := 0, 0
			for _, stride := range []int{1, 3} {
				for _, w := range watchMatchesSliding(t, wl, 100, window, stride, 2) {
					if w.Top == nil {
						empty++
					} else {
						full++
					}
				}
			}
			if empty == 0 || full == 0 {
				t.Fatalf("w=%d: %d answerless, %d answered deltas (want both > 0)", window, empty, full)
			}
		}
	})
}

// watchMatchesSliding subscribes a top-k watcher to the first p
// positions of wl's sequence, appends the rest event by event, and checks
// that the delivered deltas equal SlidingTopK over the full sequence bit
// for bit. It returns the deltas.
func watchMatchesSliding(t *testing.T, wl appendWorkload, p, window, stride, k int) []WindowResult {
	t.Helper()
	n := wl.full.Len()
	db := wl.mk(wl.full.Window(1, p))
	sub, err := db.WatchSlidingTopK("s", "q", window, stride, k)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() // on a failed read; Close is idempotent
	catchup := readDeltas(t, sub, windowsIn(p, window, stride))
	for L := p; L < n; L++ {
		if _, err := db.AppendEvents("s", eventsOf(wl.full, L, L+1)); err != nil {
			t.Fatal(err)
		}
	}
	live := readDeltas(t, sub, windowsIn(n, window, stride)-len(catchup))
	sub.Close()

	scratch := wl.mk(wl.full)
	want, err := scratch.SlidingTopK("s", "q", window, stride, k)
	if err != nil {
		t.Fatal(err)
	}
	got := append(catchup, live...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("p=%d w=%d s=%d k=%d: watched deltas diverge from SlidingTopK\ngot  %+v\nwant %+v",
			p, window, stride, k, got, want)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("closed subscription reports %v", err)
	}
	return got
}

// rfidAppendWorkload is an RFID Hospital(3,2) trace of n positions
// (seed 7) under the given noise, queried by the place transducer of
// the trigger room.
func rfidAppendWorkload(t *testing.T, name string, noise rfid.Noise, trigger string, n int) appendWorkload {
	t.Helper()
	f := rfid.Hospital(3, 2)
	trc, err := rfid.Simulate(rfid.BuildHMM(f, noise), n, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	q := rfid.PlaceTransducer(f, trigger)
	return appendWorkload{
		name: name,
		full: trc.Seq,
		mk: func(m *markov.Sequence, opts ...Option) *DB {
			db := New(opts...)
			if err := db.PutStream("s", m); err != nil {
				t.Fatal(err)
			}
			db.RegisterTransducer("q", q)
			return db
		},
	}
}

// TestWatchBeforeWindowComplete: subscribing to a stream shorter than
// the window is allowed; deltas start once appends cross the threshold.
func TestWatchBeforeWindowComplete(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 12
	wl := appendWorkloads(t, n)[0]
	db := wl.mk(wl.full.Window(1, 2))
	sub, err := db.WatchSlidingTopK("s", "q", 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case d := <-sub.C():
		t.Fatalf("delta before any window is complete: %+v", d)
	case <-time.After(50 * time.Millisecond):
	}
	for L := 2; L < n; L++ {
		if _, err := db.AppendEvents("s", eventsOf(wl.full, L, L+1)); err != nil {
			t.Fatal(err)
		}
	}
	got := readDeltas(t, sub, windowsIn(n, 6, 1))
	if got[0].Start != 1 || got[0].End != 6 {
		t.Fatalf("first delta window [%d,%d], want [1,6]", got[0].Start, got[0].End)
	}
}

// TestWatchFailsOnPutStream: replacing a watched stream ends its
// subscriptions with a descriptive error and closes their channels.
func TestWatchFailsOnPutStream(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 10
	wl := appendWorkloads(t, n)[0]
	db := wl.mk(wl.full.Window(1, 6))
	sub, err := db.WatchSlidingTopK("s", "q", 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	readDeltas(t, sub, windowsIn(6, 3, 1))
	if err := db.PutStream("s", wl.full); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.C():
		if ok {
			t.Fatal("delta delivered after PutStream replacement")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("channel not closed after PutStream replacement")
	}
	if err := sub.Err(); err == nil || !strings.Contains(err.Error(), "replaced") {
		t.Fatalf("Err = %v, want a replacement error", err)
	}
	// An append to the replacement stream does not resurrect the dead
	// subscription.
	if _, err := db.AppendEvents("s", eventsOf(wl.full, n, n)); err != nil {
		t.Fatal(err)
	}
}

// TestWatchCloseIdempotent: Close is safe to repeat, concurrently with
// appends, and closes the channel without an error.
func TestWatchCloseIdempotent(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 20
	wl := appendWorkloads(t, n)[0]
	db := wl.mk(wl.full.Window(1, 4))
	sub, err := db.WatchSlidingTopK("s", "q", 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for L := 4; L < n; L++ {
			if _, err := db.AppendEvents("s", eventsOf(wl.full, L, L+1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sub.Close()
	sub.Close()
	wg.Wait()
	for range sub.C() {
		// Drain whatever was in flight; the channel must close.
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("closed subscription reports %v", err)
	}
	// The watcher registry is empty again.
	db.mu.RLock()
	left := len(db.watchers["s"])
	db.mu.RUnlock()
	if left != 0 {
		t.Fatalf("%d watchers still registered after Close", left)
	}
}

// TestWatchUnknownArgs covers the argument validation of the watch API.
func TestWatchUnknownArgs(t *testing.T) {
	const n = 8
	wl := appendWorkloads(t, n)[0]
	db := wl.mk(wl.full)
	if _, err := db.WatchSlidingTopK("ghost", "q", 2, 1, 1); err == nil {
		t.Fatal("unknown stream accepted")
	}
	if _, err := db.WatchSlidingTopK("s", "ghost", 2, 1, 1); err == nil {
		t.Fatal("unknown query accepted")
	}
	if _, err := db.WatchSlidingTopK("s", "q", 0, 1, 1); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := db.WatchSlidingTopK("s", "q", 2, 0, 1); err == nil {
		t.Fatal("zero stride accepted")
	}
	if _, err := db.WatchSlidingTopK("s", "q", 2, 1, 0); err == nil {
		t.Fatal("zero k accepted")
	}
}

// TestMatchProbAppendStartsFreshGeneration: appends change acceptance
// probabilities, so a grown stream must re-evaluate MatchProb — as a
// miss, never as an invalidation (the cap, not appends, bumps that).
func TestMatchProbAppendStartsFreshGeneration(t *testing.T) {
	db := New()
	ab := automata.Chars("ab")
	full := markov.Homogeneous(ab, 6, []float64{1, 0}, [][]float64{{0.5, 0.5}, {0.5, 0.5}})
	if err := db.PutStream("s", full.Window(1, 3)); err != nil {
		t.Fatal(err)
	}
	a := automata.NewNFA(ab, 1, 0)
	a.SetAccepting(0, true)
	a.AddTransition(0, 0, 0) // a*
	a.AddTransition(0, 1, 0) // (a|b)* — accepts everything
	p1, err := db.MatchProb("s", a)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != 1 {
		t.Fatalf("universal automaton prob = %v", p1)
	}
	before := db.Stats()
	if _, err := db.AppendEvents("s", eventsOf(full, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MatchProb("s", a); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Misses != before.Misses+1 {
		t.Fatalf("MatchProb after append should miss: %+v -> %+v", before, s)
	}
	if s.Invalidations != before.Invalidations {
		t.Fatalf("append counted as invalidation: %+v -> %+v", before, s)
	}
	// And the fresh generation caches again.
	before = s
	if _, err := db.MatchProb("s", a); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.Hits != before.Hits+1 {
		t.Fatalf("repeat MatchProb should hit: %+v -> %+v", before, s)
	}
}

// TestMatchProbCacheCap: the per-generation MatchProb cache holds at
// most maxEventCacheProbs automata; overflow drops the generation (one
// invalidation) instead of growing without bound.
func TestMatchProbCacheCap(t *testing.T) {
	db := New()
	ab := automata.Chars("ab")
	m := markov.Homogeneous(ab, 2, []float64{0.5, 0.5}, [][]float64{{0.5, 0.5}, {0.5, 0.5}})
	if err := db.PutStream("s", m); err != nil {
		t.Fatal(err)
	}
	mkNFA := func() *automata.NFA {
		a := automata.NewNFA(ab, 1, 0)
		a.SetAccepting(0, true)
		a.AddTransition(0, 0, 0)
		a.AddTransition(0, 1, 0)
		return a
	}
	for i := 0; i < maxEventCacheProbs; i++ {
		if _, err := db.MatchProb("s", mkNFA()); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.RLock()
	size := len(db.events["s"].probs)
	db.mu.RUnlock()
	if size != maxEventCacheProbs {
		t.Fatalf("cache holds %d entries, want %d", size, maxEventCacheProbs)
	}
	before := db.Stats()
	if _, err := db.MatchProb("s", mkNFA()); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Invalidations != before.Invalidations+1 {
		t.Fatalf("overflow did not bump Invalidations: %+v -> %+v", before, s)
	}
	db.mu.RLock()
	size = len(db.events["s"].probs)
	db.mu.RUnlock()
	if size != 1 {
		t.Fatalf("cache holds %d entries after overflow reset, want 1", size)
	}
}

// TestAppendAbortsWhenStreamReplaced: a PutStream racing an append makes
// the append fail rather than resurrect the old generation. The replaced
// entry is simulated by replacing between two batches.
func TestAppendAbortsWhenStreamReplaced(t *testing.T) {
	const n = 10
	wl := appendWorkloads(t, n)[0]
	db := wl.mk(wl.full.Window(1, 4))
	db.mu.RLock()
	se := db.streams["s"]
	db.mu.RUnlock()
	// Freeze the entry the way a concurrent appender would see it, then
	// replace the stream underneath it.
	se.appendMu.Lock()
	if err := db.PutStream("s", wl.full); err != nil {
		se.appendMu.Unlock()
		t.Fatal(err)
	}
	se.appendMu.Unlock()
	if _, err := db.AppendEvents("s", nil); err != nil {
		t.Fatalf("empty append on replaced stream: %v", err)
	}
	// The stale entry can no longer be appended through: the public path
	// resolves the name to the new entry, so this must succeed against
	// the replacement, and the old entry stays frozen at its length.
	if _, err := db.AppendEvents("s", []Event{Event(identityEvent(wl.full.Nodes.Size()))}); err != nil {
		t.Fatal(err)
	}
	if se.m.Len() != 4 {
		t.Fatalf("replaced entry grew to %d", se.m.Len())
	}
	m, err := db.Stream("s")
	if err != nil || m.Len() != n+1 {
		t.Fatalf("current stream len=%d err=%v", m.Len(), err)
	}
}

func identityEvent(k int) [][]float64 {
	mat := make([][]float64, k)
	for i := range mat {
		mat[i] = make([]float64, k)
		mat[i][i] = 1
	}
	return mat
}

// TestAppendEventsAcrossManySubscribers: several subscriptions with
// different window geometry all see their own consistent delta stream
// from one appender.
func TestAppendEventsAcrossManySubscribers(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 24
	wl := appendWorkloads(t, n)[0]
	db := wl.mk(wl.full.Window(1, 6))
	geoms := [][2]int{{3, 1}, {4, 4}, {6, 2}}
	subs := make([]*Subscription, len(geoms))
	for i, g := range geoms {
		var err error
		subs[i], err = db.WatchSlidingTopK("s", "q", g[0], g[1], 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	var readers sync.WaitGroup
	results := make([][]WindowResult, len(geoms))
	for i, g := range geoms {
		readers.Add(1)
		go func(i int, window, stride int) {
			defer readers.Done()
			want := windowsIn(n, window, stride)
			out := make([]WindowResult, 0, want)
			for d := range subs[i].C() {
				out = append(out, d.WindowResult)
				if len(out) == want {
					break
				}
			}
			results[i] = out
		}(i, g[0], g[1])
	}
	for L := 6; L < n; L++ {
		if _, err := db.AppendEvents("s", eventsOf(wl.full, L, L+1)); err != nil {
			t.Fatal(err)
		}
	}
	readers.Wait()
	scratch := wl.mk(wl.full)
	for i, g := range geoms {
		want, err := scratch.SlidingTopK("s", "q", g[0], g[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("subscriber %d (w=%d s=%d) diverges from SlidingTopK", i, g[0], g[1])
		}
		subs[i].Close()
	}
}
