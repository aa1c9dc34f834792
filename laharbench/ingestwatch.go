package main

import (
	"context"
	"fmt"
	"time"

	"markovseq/internal/core"
	"markovseq/internal/hmm"
	"markovseq/internal/kernel"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/ranked"
	"markovseq/internal/transducer"
)

const (
	iwStreams = 8
	iwHistory = 200 // readings each stream receives before the first request
	iwLag     = 4
	iwWindow  = 32
	iwK       = 3
	iwRounds  = 500 // requests per stream per epoch
)

// ingestWatch is the ingest-watch workload: eight streams, each fed raw
// RFID readings by a fixed-lag ingester and watched by one sliding top-3
// subscription. A request is one reading on the next stream, and ends when
// that stream's new window delta is received. Each epoch starts from a
// fresh store with a 200-reading history per stream, which bounds the
// appended state a run accumulates.
type ingestWatch struct {
	in    *inputs
	db    *lahar.DB
	reads [iwStreams][]string // this epoch's readings: history, then requests
	ings  [iwStreams]*lahar.Ingester
	subs  [iwStreams]*lahar.Subscription
	rec   map[int]lahar.WindowDelta // this epoch's sampled deltas
	bad   map[int]error
	cnt   counters
}

func newIngestWatch(in *inputs) workload {
	return &ingestWatch{in: in, rec: map[int]lahar.WindowDelta{}, bad: map[int]error{}, cnt: counters{}}
}

func (w *ingestWatch) cycle() int { return iwStreams * iwRounds }

// pool is one: every epoch replays the same readings into a fresh store.
func (w *ingestWatch) pool() int { return 1 }

func (w *ingestWatch) readings(int) {
	for s := range w.reads {
		w.reads[s] = w.in.readings(iwHistory+iwRounds, keyIngest, int64(s))
	}
}

// build starts a fresh store on epoch e's histories: every stream ingests
// its history, is subscribed, and has its catch-up windows delivered.
func (w *ingestWatch) build(ctx context.Context) error {
	w.db = lahar.New()
	w.db.RegisterTransducer("q", w.in.query)
	for s := range w.reads {
		ing, err := w.db.NewIngester(stream(s), w.in.model, lahar.WithFixedLag(iwLag))
		if err != nil {
			return err
		}
		for _, obs := range w.reads[s][:iwHistory] {
			if _, err := ing.AppendObs(obs); err != nil {
				return err
			}
		}
		sub, err := w.db.WatchSlidingTopK(stream(s), "q", iwWindow, 1, iwK)
		if err != nil {
			return err
		}
		w.ings[s], w.subs[s] = ing, sub
		for k := 0; k < iwHistory-iwLag-iwWindow+1; k++ {
			if _, err := recv(ctx, sub); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *ingestWatch) setup(ctx context.Context, e int) (time.Duration, error) {
	w.readings(e)
	t0 := time.Now()
	err := w.build(ctx)
	return time.Since(t0), err
}

func (w *ingestWatch) epoch(ctx context.Context, e int) error {
	w.close()
	_, err := w.setup(ctx, e)
	return err
}

// close checks the epoch's sampled deltas while the store still holds
// their streams, then stops the subscriptions.
func (w *ingestWatch) close() {
	w.checkEpoch()
	for s, sub := range w.subs {
		if sub != nil {
			sub.Close()
		}
		w.subs[s], w.ings[s] = nil, nil
	}
	w.db = nil
}

// recv waits for the subscription's next delta.
func recv(ctx context.Context, sub *lahar.Subscription) (lahar.WindowDelta, error) {
	select {
	case d, ok := <-sub.C():
		if !ok {
			return d, fmt.Errorf("subscription ended: %v", sub.Err())
		}
		return d, nil
	case <-ctx.Done():
		return lahar.WindowDelta{}, ctx.Err()
	}
}

// reading returns request i's stream, its round within the epoch, and the
// reading it ingests.
func (w *ingestWatch) reading(i int) (s, r int, obs string) {
	j := i % w.cycle()
	s, r = j%iwStreams, j/iwStreams
	return s, r, w.reads[s][iwHistory+r]
}

// windowEnd is the last position of the window request round r completes:
// the lag holds back iwLag readings, and every later reading commits one
// position and so completes one window.
func windowEnd(r int) int { return iwHistory - iwLag + r + 1 }

func (w *ingestWatch) request(ctx context.Context, i int, tr *tracer) (sample, error) {
	s, r, obs := w.reading(i)
	t0 := time.Now()
	if _, err := w.ings[s].AppendObs(obs); err != nil {
		return sample{}, err
	}
	t1 := time.Now()
	d, err := recv(ctx, w.subs[s])
	t2 := time.Now()
	if err != nil {
		return sample{}, err
	}
	if tr != nil {
		root := tr.root(i, t0)
		tr.child(root, "lahar.ingest", t0, t1)
		tr.child(root, "lahar.deliver", t1, t2)
		tr.end(root, t2)
	}
	if d.End != windowEnd(r) {
		return sample{}, fmt.Errorf("%w: delta for window [%d,%d], want one ending at %d", errWrongAnswer, d.Start, d.End, windowEnd(r))
	}
	if tr == nil && i%checkEvery == 0 {
		w.rec[i] = d
	}
	lat := ms(t2.Sub(t0))
	return sample{lat: lat, first: lat, digest: digest(fromResults(d.Top))}, nil
}

// checkEpoch compares the epoch's sampled deltas with a fresh sliding
// sweep of their streams as the store holds them at the epoch's end: the
// stream state is gone once the next epoch starts.
func (w *ingestWatch) checkEpoch() {
	if len(w.rec) == 0 {
		return
	}
	defer clear(w.rec)
	pr := core.PrepareTransducer(w.in.query)
	byStream := map[int]map[int]int{} // stream → window end → request
	for i, d := range w.rec {
		s := i % w.cycle() % iwStreams
		if byStream[s] == nil {
			byStream[s] = map[int]int{}
		}
		byStream[s][d.End] = i
	}
	for s, want := range byStream {
		m, err := w.db.Stream(stream(s))
		if err != nil {
			for _, i := range want {
				w.bad[i] = err
			}
			continue
		}
		run := pr.Windows(m, iwWindow, 1)
		ev := run.NewEval()
		for win, ok := run.Next(); ok; win, ok = run.Next() {
			i, sampled := want[win.End]
			if !sampled {
				continue
			}
			delete(want, win.End)
			top, err := ev.TopK(context.Background(), win, iwK)
			if err == nil {
				err = compareExact(fromResults(w.rec[i].Top), fromCore(top))
			}
			if err != nil || w.rec[i].Start != win.Start {
				w.bad[i] = fmt.Errorf("%w: window [%d,%d]: %v", errWrongAnswer, win.Start, win.End, err)
			}
		}
		for end, i := range want {
			w.bad[i] = fmt.Errorf("%w: the stream has no window ending at %d", errWrongAnswer, end)
		}
	}
}

func (w *ingestWatch) check() (map[int]error, error) {
	w.checkEpoch()
	bad := w.bad
	w.bad = map[int]error{}
	return bad, nil
}

// replayStream is one stream's state in passes B and C: the smoother and
// sequence the ingester keeps, and the window state the subscription keeps
// — a core.StreamRun in pass B; in pass C its parts, the markov windower,
// the kernel gate and a ranked sweeper.
type replayStream struct {
	sm  *hmm.FixedLagSmoother
	m   *markov.Sequence
	run *core.StreamRun
	ev  *core.WindowEval

	wr    *markov.Windower
	gate  *kernel.WindowEvaluator
	sw    *ranked.Sweeper
	start int // next window's first position
}

// observe feeds one reading to the smoother and extends the sequence by
// the position it commits, timing both.
func (rs *replayStream) observe(model *hmm.Model, obs string) (t1 time.Time, err error) {
	sym, ok := model.Obs.Symbol(obs)
	if !ok {
		return t1, fmt.Errorf("unknown reading %q", obs)
	}
	commits, err := rs.sm.Observe(sym)
	t1 = time.Now()
	if err != nil {
		return t1, err
	}
	for _, c := range commits {
		if c.Pos == 1 {
			rs.m = markov.New(model.States, 1)
			copy(rs.m.Initial, c.Initial)
			continue
		}
		if rs.m, err = rs.m.Extended([][][]float64{c.Trans}); err != nil {
			return t1, err
		}
	}
	return t1, nil
}

// next mirrors core.StreamRun.Next over pass C's windower and gate.
func (rs *replayStream) next() (win *markov.Sequence, ok bool, err error) {
	if rs.start+iwWindow-1 > rs.m.Len() {
		return nil, false, nil
	}
	wf, ok := rs.gate.Next()
	if !ok || wf.Start != rs.start {
		return nil, false, fmt.Errorf("gate at window %d, sweep at %d", wf.Start, rs.start)
	}
	if wf.NonEmpty {
		win = rs.wr.SharedWindow(rs.start, rs.start+iwWindow-1)
	}
	rs.start++
	rs.wr.EvictBefore(rs.start - 1)
	return win, true, nil
}

func (w *ingestWatch) replay(_ context.Context, pass string, e int, tr *tracer) ([]uint64, error) {
	bg := context.Background()
	pr := core.PrepareTransducer(w.in.query, core.WithRankedWorkers(1))
	pt := transducer.Preprocess(w.in.query)
	nt := kernel.NewNFATables(pt)
	w.readings(e)
	var st [iwStreams]*replayStream
	for s := range st {
		rs, err := w.replayStream(pass, s, pr, pt, nt)
		if err != nil {
			return nil, err
		}
		st[s] = rs
	}
	digs := make([]uint64, w.cycle())
	for j := range digs {
		i := e*w.cycle() + j
		s, _, obs := w.reading(i)
		rs := st[s]
		t0 := time.Now()
		t1, err := rs.observe(w.in.model, obs)
		t2 := time.Now()
		if err != nil {
			return nil, err
		}
		root := tr.root(i, t0)
		tr.child(root, "hmm.observe", t0, t1)
		tr.child(root, "markov.extend", t1, t2)
		var got []answer
		if pass == "B" {
			rs.run.Extend(rs.m)
			win, ok := rs.run.Next()
			if !ok {
				return nil, fmt.Errorf("request %d completed no window", i)
			}
			top, err := rs.ev.TopK(bg, win, iwK)
			t3 := time.Now()
			if err != nil {
				return nil, err
			}
			tr.child(root, "core.window", t2, t3)
			tr.end(root, t3)
			got = fromCore(top)
		} else {
			before := rs.sw.PruneStats()
			rs.wr.Extend(rs.m)
			rs.gate.Extend(rs.m.View(), rs.wr)
			win, ok, err := rs.next()
			t3 := time.Now()
			if err != nil || !ok {
				return nil, fmt.Errorf("request %d completed no window: %v", i, err)
			}
			var top []ranked.Answer
			if win != nil {
				if top, err = rs.sw.TopK(bg, win, iwK); err != nil {
					return nil, err
				}
			}
			t4 := time.Now()
			tr.child(root, "kernel.gate", t2, t3)
			tr.child(root, "ranked.sweep", t3, t4)
			tr.end(root, t4)
			w.cnt.addKernel(before, rs.sw.PruneStats())
			if win != nil {
				// The backward sweep the sweeper builds its pruning bounds
				// with, timed on its own after the request.
				tb := time.Now()
				kernel.NewBounds(nt, win.View())
				tr.extra(i, "kernel.bounds", tb, time.Now())
			}
			got = fromRanked(top)
		}
		digs[j] = digest(got)
	}
	return digs, nil
}

// replayStream builds stream s's pass-B or pass-C state from its history,
// as the store's ingester and subscription would, and sweeps the
// catch-up windows.
func (w *ingestWatch) replayStream(pass string, s int, pr *core.Prepared, pt *transducer.Transducer, nt *kernel.NFATables) (*replayStream, error) {
	bg := context.Background()
	sm, err := hmm.NewFixedLagSmoother(w.in.model, iwLag)
	if err != nil {
		return nil, err
	}
	rs := &replayStream{sm: sm, start: 1}
	for _, obs := range w.reads[s][:iwHistory] {
		if _, err := rs.observe(w.in.model, obs); err != nil {
			return nil, err
		}
	}
	if pass == "B" {
		rs.run = pr.StreamWindows(rs.m, iwWindow, 1)
		rs.ev = rs.run.NewEval()
		for win, ok := rs.run.Next(); ok; win, ok = rs.run.Next() {
			if _, err := rs.ev.TopK(bg, win, iwK); err != nil {
				return nil, err
			}
		}
		return rs, nil
	}
	rs.wr = rs.m.Windower()
	rs.gate = kernel.NewWindowEvaluator(nt, rs.m.View(), rs.wr, iwWindow, 1, kernel.MaxLog)
	rs.sw = ranked.NewSweeper(pt, ranked.WithTables(nt))
	for {
		win, ok, err := rs.next()
		if err != nil || !ok {
			return rs, err
		}
		if win != nil {
			if _, err := rs.sw.TopK(bg, win, iwK); err != nil {
				return nil, err
			}
		}
	}
}

func (w *ingestWatch) layers(tr *tracer, n int) map[string]float64 {
	m := map[string]float64{
		"lahar.ingest_ms":  tr.p50("A", "lahar.ingest", n),
		"lahar.deliver_ms": tr.p50("A", "lahar.deliver", n),
		"lahar.self_ms":    tr.selfP50("A", "B", n),
		"hmm.observe_us":   1e3 * tr.p50("B", "hmm.observe", n),
		"markov.extend_us": 1e3 * tr.p50("B", "markov.extend", n),
		"core.window_ms":   tr.p50("B", "core.window", n),
		"core.self_ms":     tr.selfP50("B", "C", n),
		"kernel.gate_ms":   tr.p50("C", "kernel.gate", n),
		"ranked.sweep_ms":  tr.p50("C", "ranked.sweep", n),
		"kernel.bounds_ms": tr.p50("C", "kernel.bounds", n),
	}
	w.cnt.kernelMetrics(m)
	return m
}
