package lahar

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/paperex"
	"markovseq/internal/regex"
	"markovseq/internal/rfid"
	"markovseq/internal/sproj"
	"markovseq/internal/testutil"
)

// TestEngineCacheHit: repeated queries on an unchanged (stream, query)
// pair are served from the cache.
func TestEngineCacheHit(t *testing.T) {
	db, _, outs := setup(t)
	first, err := db.TopK("cart17", "places", 3)
	if err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first query: %+v", s)
	}
	for i := 0; i < 5; i++ {
		again, err := db.TopK("cart17", "places", 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) || outs.FormatString(again[0].Output) != outs.FormatString(first[0].Output) {
			t.Fatalf("cached result diverged: %v vs %v", again, first)
		}
	}
	if s := db.Stats(); s.Misses != 1 || s.Hits != 5 {
		t.Fatalf("after repeats: %+v", s)
	}
	// Other read modes share the same engine.
	if _, err := db.Explain("cart17", "places"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Enumerate("cart17", "places", 2); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.Misses != 1 {
		t.Fatalf("Explain/Enumerate rebuilt the engine: %+v", s)
	}
}

// TestStatsReportHandleCounters: a store's engines are append-extendable
// and unpruned, yet their enumerations count the checkpoint handles they
// make and the layers those materialize, so CacheStats.Ranked shows them
// after a TopK while the pruning counters stay zero.
func TestStatsReportHandleCounters(t *testing.T) {
	db, _, _ := setup(t)
	if _, err := db.TopK("cart17", "places", 5); err != nil {
		t.Fatal(err)
	}
	s := db.Stats().Ranked
	if s.LazyHandles == 0 || s.LazyLayers == 0 {
		t.Fatalf("TopK reported no checkpoint handles or layers: %+v", s)
	}
	if s.Resolves != 0 || s.PrunedCells != 0 {
		t.Fatalf("an extendable engine reported pruned resolves: %+v", s)
	}
}

// TestPutStreamInvalidatesEngine: replacing a stream must never serve
// the old stream's answers.
func TestPutStreamInvalidatesEngine(t *testing.T) {
	db := New()
	ab := automata.Chars("ab")
	db.RegisterSProjector("runs", mustSimpleSProjector(t, "a+", ab), false)

	allA := markov.Homogeneous(ab, 3, []float64{1, 0}, [][]float64{{1, 0}, {1, 0}})
	allB := markov.Homogeneous(ab, 3, []float64{0, 1}, [][]float64{{0, 1}, {0, 1}})

	if err := db.PutStream("s", allA); err != nil {
		t.Fatal(err)
	}
	res, err := db.TopK("s", "runs", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Score < 0.99 {
		t.Fatalf("all-a stream should match a+ with confidence ~1: %v", res)
	}
	// Replace with the all-b stream: a+ has no answers now.
	if err := db.PutStream("s", allB); err != nil {
		t.Fatal(err)
	}
	res, err = db.TopK("s", "runs", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("stale engine served after PutStream: %v", res)
	}
	if s := db.Stats(); s.Invalidations == 0 || s.Misses != 2 {
		t.Fatalf("expected one invalidation and two misses: %+v", s)
	}
}

// TestRegisterInvalidatesEngine: re-registering a query name drops its
// cached engines.
func TestRegisterInvalidatesEngine(t *testing.T) {
	db := New()
	ab := automata.Chars("ab")
	m := markov.Homogeneous(ab, 3, []float64{0.5, 0.5}, [][]float64{{0.5, 0.5}, {0.5, 0.5}})
	if err := db.PutStream("s", m); err != nil {
		t.Fatal(err)
	}
	db.RegisterSProjector("q", mustSimpleSProjector(t, "a+", ab), false)
	resA, err := db.TopK("s", "q", 1)
	if err != nil {
		t.Fatal(err)
	}
	db.RegisterSProjector("q", mustSimpleSProjector(t, "b+", ab), false)
	resB, err := db.TopK("s", "q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(resA) == 0 || len(resB) == 0 {
		t.Fatalf("expected answers from both generations: %v %v", resA, resB)
	}
	if ab.FormatString(resA[0].Output) == ab.FormatString(resB[0].Output) {
		t.Fatalf("re-registered query served stale answers: %v", resB)
	}
}

func mustSimpleSProjector(t *testing.T, pattern string, ab *automata.Alphabet) *sproj.SProjector {
	t.Helper()
	return sproj.Simple(regex.MustCompileDFA(pattern, ab))
}

// TestMatchProbCached: event probabilities are cached per stream
// generation and invalidated on replacement.
func TestMatchProbCached(t *testing.T) {
	db, nodes, _ := setup(t)
	visitsLab := regex.MustCompile(".*(<la>|<lb>).*", nodes)
	p1, err := db.MatchProb("cart17", visitsLab)
	if err != nil {
		t.Fatal(err)
	}
	base := db.Stats()
	p2, err := db.MatchProb("cart17", visitsLab)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("cached MatchProb diverged: %v vs %v", p1, p2)
	}
	if s := db.Stats(); s.Hits != base.Hits+1 || s.Misses != base.Misses {
		t.Fatalf("second MatchProb should be a cache hit: %+v -> %+v", base, s)
	}
	// Replacing the stream invalidates the event cache.
	if err := db.PutStream("cart17", paperex.Figure1(nodes)); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	if _, err := db.MatchProb("cart17", visitsLab); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.Misses != before.Misses+1 {
		t.Fatalf("MatchProb after PutStream should miss: %+v -> %+v", before, s)
	}
}

// TestConcurrentTopKPutStream hammers the cache with concurrent readers
// and writers; run under -race this checks the serving layer's
// synchronization, and every read must see either the old or the new
// generation's answers — never a mix or a crash.
func TestConcurrentTopKPutStream(t *testing.T) {
	testutil.CheckLeaks(t)
	db := New()
	ab := automata.Chars("ab")
	db.RegisterSProjector("runs", mustSimpleSProjector(t, "a+", ab), false)
	gen := func(seed int64) *markov.Sequence {
		return markov.Random(ab, 6, 0.8, rand.New(rand.NewSource(seed)))
	}
	if err := db.PutStream("s", gen(1)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := db.TopK("s", "runs", 3); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := db.TopKAcross([]string{"s"}, "runs", 2); err != nil {
						t.Error(err)
					}
				default:
					if err := db.PutStream("s", gen(int64(g*1000+i))); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTopKAcrossAllErrorsJoined: every failing stream is reported, not
// just the first.
func TestTopKAcrossAllErrorsJoined(t *testing.T) {
	testutil.CheckLeaks(t)
	db, _, _ := setup(t)
	_, err := db.TopKAcross([]string{"ghost1", "cart17", "ghost2"}, "places", 2)
	if err == nil {
		t.Fatal("expected an error for unknown streams")
	}
	for _, want := range []string{"ghost1", "ghost2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestSlidingTopKWindowTooLarge: a window longer than the stream is a
// descriptive error, not a silent empty result.
func TestSlidingTopKWindowTooLarge(t *testing.T) {
	db, _, _ := setup(t)
	res, err := db.SlidingTopK("cart17", "places", 99, 1, 1)
	if err == nil {
		t.Fatalf("oversized window returned %v with no error", res)
	}
	if !strings.Contains(err.Error(), "exceeds") || !strings.Contains(err.Error(), "99") {
		t.Fatalf("error not descriptive: %v", err)
	}
}

// TestSlidingTopKParallelMatchesSerial: the ParallelWindows option
// changes scheduling, not results.
func TestSlidingTopKParallelMatchesSerial(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	serial := New()
	parallel := New(WithParallelWindows(true), WithWorkers(4))
	for _, db := range []*DB{serial, parallel} {
		if err := db.PutStream("cart", paperex.Figure1(nodes)); err != nil {
			t.Fatal(err)
		}
		db.RegisterTransducer("places", paperex.Figure2(nodes, outs))
	}
	want, err := serial.SlidingTopK("cart", "places", 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallel.SlidingTopK("cart", "places", 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("window counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Start != want[i].Start || got[i].End != want[i].End || len(got[i].Top) != len(want[i].Top) {
			t.Fatalf("window %d differs: %+v vs %+v", i, got[i], want[i])
		}
		for j := range want[i].Top {
			if outs.FormatString(got[i].Top[j].Output) != outs.FormatString(want[i].Top[j].Output) {
				t.Fatalf("window %d answer %d differs", i, j)
			}
		}
	}
}

// TestStatsDuringDrainDoesNotStallStore: Stats must not hold the store
// lock while it waits for an engine that is mid-drain. A Stats that did
// would park a writer (PutStream) behind its read lock, and Go's RWMutex
// then queues every later reader behind that writer, so one long drain
// would stall a cached TopK on an unrelated stream until it ended. The
// pauses only order the set-up (drain running, Stats waiting on it,
// writer queued); the assertions wait on events.
func TestStatsDuringDrainDoesNotStallStore(t *testing.T) {
	f := rfid.Hospital(4, 2)
	h := rfid.BuildHMM(f, rfid.DefaultNoise)
	long, err := rfid.Simulate(h, 400, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	short, err := rfid.Simulate(h, 20, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	db := New()
	db.RegisterTransducer("q", rfid.PlaceTransducer(f, "lab"))
	for name, m := range map[string]*markov.Sequence{"long": long.Seq, "short": short.Seq} {
		if err := db.PutStream(name, m); err != nil {
			t.Fatal(err)
		}
		if _, err := db.TopK(name, "q", 1); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		db.TopKCtx(ctx, "long", "q", 100000)
	}()
	statsDone, putDone, probeDone := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	defer func() {
		cancel()
		<-drained
		<-statsDone
		<-putDone
		<-probeDone
	}()
	const pause = 100 * time.Millisecond
	time.Sleep(pause)
	go func() {
		defer close(statsDone)
		db.Stats()
	}()
	time.Sleep(pause)
	go func() {
		defer close(putDone)
		if err := db.PutStream("other", short.Seq); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(pause)
	start := time.Now()
	go func() {
		_, err := db.TopK("short", "q", 1)
		probeDone <- err
	}()
	select {
	case err := <-probeDone:
		probeDone <- err
		if err != nil {
			t.Fatal(err)
		}
	case <-drained:
		t.Fatal("a cached TopK on another stream waited for the whole drain")
	case <-time.After(5 * time.Second):
		t.Fatalf("a cached TopK on another stream stalled for %v behind Stats and a queued PutStream", time.Since(start))
	}
	select {
	case <-putDone:
	case <-drained:
		t.Fatal("PutStream waited for the whole drain")
	case <-time.After(5 * time.Second):
		t.Fatal("PutStream stalled behind Stats")
	}
}
