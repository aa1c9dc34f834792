package main

import (
	"context"
	"fmt"
	"time"

	"markovseq/internal/core"
	"markovseq/internal/kernel"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/ranked"
	"markovseq/internal/transducer"
)

const (
	arStreams = 4
	arStart   = 100 // stream length when an epoch begins
	arEpoch   = 25  // appends per stream per epoch
	arPool    = 10  // epochs before the traces repeat
	arK       = 10
)

// appendRank is the append-rank workload: a request appends one event to
// the next of four streams and ranks it with TopKCtx(1) then TopKCtx(10).
// Every stream is replaced by a fresh 200-position trace after each epoch
// of 25 appends, which bounds the state the carried enumerations retain.
type appendRank struct {
	in    *inputs
	db    *lahar.DB
	full  [arStreams]*markov.Sequence // this epoch's traces, arStart+arEpoch long
	start [arStreams]*markov.Sequence // fresh copies of their first arStart positions
	got   map[int][]answer            // sampled untraced requests' top-k
	cnt   counters
}

func newAppendRank(in *inputs) workload {
	return &appendRank{in: in, got: map[int][]answer{}, cnt: counters{}}
}

func (w *appendRank) cycle() int { return arStreams * arEpoch }

func (w *appendRank) pool() int { return arPool }

// traces generates epoch e's inputs.
func (w *appendRank) traces(e int) error {
	for s := range w.full {
		m, err := w.in.trace(arStart+arEpoch, keyAppend, int64(e%arPool), int64(s))
		if err != nil {
			return err
		}
		w.full[s], w.start[s] = m, prefix(m, arStart)
	}
	return nil
}

// load puts every stream's epoch-start prefix into the store and drains it
// once, so that the epoch's first append extends a warm engine.
func (w *appendRank) load() error {
	for s, m := range w.start {
		if err := w.db.PutStream(stream(s), m); err != nil {
			return err
		}
		if _, err := w.db.TopKCtx(context.Background(), stream(s), "q", arK); err != nil {
			return err
		}
	}
	return nil
}

func (w *appendRank) setup(_ context.Context, e int) (time.Duration, error) {
	if err := w.traces(e); err != nil {
		return 0, err
	}
	t0 := time.Now()
	w.db = lahar.New()
	w.db.RegisterTransducer("q", w.in.query)
	err := w.load()
	return time.Since(t0), err
}

func (w *appendRank) epoch(_ context.Context, e int) error {
	if err := w.traces(e); err != nil {
		return err
	}
	return w.load()
}

func (w *appendRank) close() { w.db = nil }

// event returns request i's stream and the transition matrix it appends:
// the r-th append of an epoch takes a stream from arStart+r positions to
// one more.
func (w *appendRank) event(i int) (s int, ev [][]float64) {
	j := i % w.cycle()
	s = j % arStreams
	return s, w.full[s].TransAt(arStart + j/arStreams)
}

func (w *appendRank) request(_ context.Context, i int, tr *tracer) (sample, error) {
	bg := context.Background()
	s, ev := w.event(i)
	name := stream(s)
	var before lahar.CacheStats
	if tr != nil {
		before = w.db.Stats()
	}
	t0 := time.Now()
	if _, err := w.db.AppendEventsCtx(bg, name, []lahar.Event{ev}); err != nil {
		return sample{}, err
	}
	var ta time.Time
	if tr != nil {
		ta = time.Now()
	}
	top1, err := w.db.TopKCtx(bg, name, "q", 1)
	t1 := time.Now()
	if err != nil {
		return sample{}, err
	}
	top, err := w.db.TopKCtx(bg, name, "q", arK)
	t2 := time.Now()
	if err != nil {
		return sample{}, err
	}
	if tr != nil {
		root := tr.root(i, t0)
		tr.child(root, "lahar.append", t0, ta)
		tr.child(root, "lahar.topk", ta, t1)
		tr.child(root, "lahar.topk", t1, t2)
		tr.end(root, t2)
		after := w.db.Stats()
		w.cnt.add("lahar.extensions_per_req", before.Extensions, after.Extensions)
		w.cnt.add("lahar.misses_per_req", before.Misses, after.Misses)
	}
	got := fromResults(top)
	if len(top1) != 1 || len(got) == 0 || digest(fromResults(top1)) != digest(got[:1]) {
		return sample{}, fmt.Errorf("%w: top-1 %v is not the head of top-%d %v", errWrongAnswer, top1, arK, top)
	}
	if tr == nil && i%checkEvery == 0 {
		w.got[i] = got
	}
	return sample{lat: ms(t2.Sub(t0)), first: ms(t1.Sub(t0)), digest: digest(got)}, nil
}

// check compares the carried top-10 of sampled requests with a fresh
// pruned drain of the same snapshot.
func (w *appendRank) check() (map[int]error, error) {
	bad := map[int]error{}
	pr := core.PrepareTransducer(w.in.query)
	for i, got := range w.got {
		e, j := i/w.cycle(), i%w.cycle()
		full, err := w.in.trace(arStart+arEpoch, keyAppend, int64(e%arPool), int64(j%arStreams))
		if err != nil {
			return nil, err
		}
		eng, err := pr.BindValidated(prefix(full, arStart+j/arStreams+1))
		if err != nil {
			return nil, err
		}
		want, err := throughTies(context.Background(), eng, arK)
		if err != nil {
			return nil, err
		}
		if err := compareRanked(got, want, arK); err != nil {
			bad[i] = fmt.Errorf("%w: %v", errWrongAnswer, err)
		}
	}
	return bad, nil
}

func (w *appendRank) replay(_ context.Context, pass string, e int, tr *tracer) ([]uint64, error) {
	if err := w.traces(e); err != nil {
		return nil, err
	}
	if pass == "B" {
		return w.replayCore(e, tr)
	}
	return w.replayRanked(e, tr)
}

// replayCore is pass B: the store's part done through core — the append
// as markov.Sequence.Extended, the cache extension as
// Prepared.ExtendValidated, then the engine's two TopKCtx calls.
func (w *appendRank) replayCore(e int, tr *tracer) ([]uint64, error) {
	bg := context.Background()
	pr := core.PrepareTransducer(w.in.query, core.WithRankedWorkers(1))
	var seqs [arStreams]*markov.Sequence
	var engs [arStreams]*core.Engine
	for s, m := range w.start {
		eng, err := pr.ExtendValidated(nil, m)
		if err != nil {
			return nil, err
		}
		if _, err := eng.TopKCtx(bg, arK); err != nil {
			return nil, err
		}
		seqs[s], engs[s] = m, eng
	}
	digs := make([]uint64, w.cycle())
	for j := range digs {
		i := e*w.cycle() + j
		s, ev := w.event(i)
		t0 := time.Now()
		m2, err := seqs[s].Extended([][][]float64{ev})
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		eng, err := pr.ExtendValidated(engs[s], m2)
		t2 := time.Now()
		if err != nil {
			return nil, err
		}
		if _, err := eng.TopKCtx(bg, 1); err != nil {
			return nil, err
		}
		t3 := time.Now()
		top, err := eng.TopKCtx(bg, arK)
		t4 := time.Now()
		if err != nil {
			return nil, err
		}
		root := tr.root(i, t0)
		tr.child(root, "markov.extend", t0, t1)
		tr.child(root, "core.extend", t1, t2)
		tr.child(root, "core.first", t2, t3)
		tr.child(root, "core.rest", t3, t4)
		tr.end(root, t4)
		// The pruning counters live in the engine's bounds, fresh with
		// every extension.
		w.cnt.addKernel(kernel.PruneStats{}, eng.PruneStats())
		seqs[s], engs[s] = m2, eng
		digs[j] = digest(fromCore(top))
	}
	return digs, nil
}

// replayRanked is pass C: the engine's part done through ranked — the
// carry as ranked.ExtendEnumerator, the drain as Enumerator.NextCtx.
func (w *appendRank) replayRanked(e int, tr *tracer) ([]uint64, error) {
	bg := context.Background()
	pt := transducer.Preprocess(w.in.query)
	nt := kernel.NewNFATables(pt)
	var seqs [arStreams]*markov.Sequence
	var enums [arStreams]*ranked.Enumerator
	for s, m := range w.start {
		en := ranked.NewEnumerator(pt, m, ranked.WithTables(nt), ranked.WithWorkers(1), ranked.WithExtendable())
		if _, err := drain(bg, en, arK); err != nil {
			return nil, err
		}
		seqs[s], enums[s] = m, en
	}
	digs := make([]uint64, w.cycle())
	for j := range digs {
		i := e*w.cycle() + j
		s, ev := w.event(i)
		reused0, reseeded0, _ := enums[s].ExtendStats()
		t0 := time.Now()
		m2, err := seqs[s].Extended([][][]float64{ev})
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		en, ok := ranked.ExtendEnumerator(enums[s], m2, 1)
		t2 := time.Now()
		if !ok {
			return nil, fmt.Errorf("request %d: enumeration not carried", i)
		}
		top, err := drain(bg, en, arK)
		t3 := time.Now()
		if err != nil {
			return nil, err
		}
		root := tr.root(i, t0)
		tr.child(root, "markov.extend", t0, t1)
		tr.child(root, "ranked.carry", t1, t2)
		tr.child(root, "ranked.next", t2, t3)
		tr.end(root, t3)
		reused, reseeded, _ := en.ExtendStats()
		w.cnt.add("ranked.reused_per_req", reused0, reused)
		w.cnt.add("ranked.reseeded_per_req", reseeded0, reseeded)
		seqs[s], enums[s] = m2, en
		digs[j] = digest(fromRanked(top))
	}
	return digs, nil
}

// drain returns the next k answers of en.
func drain(ctx context.Context, en *ranked.Enumerator, k int) ([]ranked.Answer, error) {
	out := make([]ranked.Answer, 0, k)
	for len(out) < k {
		a, ok, err := en.NextCtx(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out, nil
}

func (w *appendRank) layers(tr *tracer, n int) map[string]float64 {
	m := map[string]float64{
		"lahar.append_ms":          tr.p50("A", "lahar.append", n),
		"lahar.topk_ms":            tr.p50("A", "lahar.topk", n),
		"lahar.self_ms":            tr.selfP50("A", "B", n),
		"lahar.extensions_per_req": w.cnt.perReq("lahar.extensions_per_req"),
		"lahar.misses_per_req":     w.cnt.perReq("lahar.misses_per_req"),
		"markov.extend_us":         1e3 * tr.p50("B", "markov.extend", n),
		"core.extend_ms":           tr.p50("B", "core.extend", n),
		"core.first_ms":            tr.p50("B", "core.first", n),
		"core.rest_ms":             tr.p50("B", "core.rest", n),
		"core.self_ms":             tr.selfP50("B", "C", n),
		"ranked.carry_ms":          tr.p50("C", "ranked.carry", n),
		"ranked.next_ms":           tr.p50("C", "ranked.next", n),
		"ranked.reused_per_req":    w.cnt.perReq("ranked.reused_per_req"),
		"ranked.reseeded_per_req":  w.cnt.perReq("ranked.reseeded_per_req"),
	}
	w.cnt.kernelMetrics(m)
	return m
}
