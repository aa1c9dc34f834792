package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"markovseq/internal/conf"
	"markovseq/internal/core"
	"markovseq/internal/kernel"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/ranked"
	"markovseq/internal/transducer"
)

const (
	crStreams = 8
	crLen     = 40
	crRounds  = 125 // requests per stream per epoch
	crK       = 10
	confTol   = 1e-12
)

// coldRank is the cold-rank workload: before each request a sequence
// object the store has never seen replaces the next of eight streams,
// untimed; the request then ranks it with TopKCtx(1) and TopKCtx(10) and
// computes the confidence of every answer. No work is shared between
// requests. Every epoch replays the same 1000 traces as new objects.
type coldRank struct {
	in  *inputs
	db  *lahar.DB
	got map[int][]answer // sampled untraced requests' answers
	cnt counters
}

func newColdRank(in *inputs) workload {
	return &coldRank{in: in, got: map[int][]answer{}, cnt: counters{}}
}

func (w *coldRank) cycle() int { return crStreams * crRounds }

func (w *coldRank) pool() int { return 1 }

// seq returns request i's sequence, generated anew on every call so that
// it is an object no store has seen; request -1-s is stream s's sequence
// at set-up.
func (w *coldRank) seq(i int) (*markov.Sequence, error) {
	if i >= 0 {
		i %= w.cycle()
	}
	return w.in.trace(crLen, keyCold, int64(i))
}

func (w *coldRank) epoch(context.Context, int) error { return nil }

func (w *coldRank) setup(context.Context, int) (time.Duration, error) {
	seqs := make([]*markov.Sequence, crStreams)
	for s := range seqs {
		m, err := w.seq(-1 - s)
		if err != nil {
			return 0, err
		}
		seqs[s] = m
	}
	t0 := time.Now()
	w.db = lahar.New()
	w.db.RegisterTransducer("q", w.in.query)
	for s, m := range seqs {
		if err := w.db.PutStream(stream(s), m); err != nil {
			return 0, err
		}
		if _, err := w.db.TopKCtx(context.Background(), stream(s), "q", crK); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func (w *coldRank) close() { w.db = nil }

func (w *coldRank) request(_ context.Context, i int, tr *tracer) (sample, error) {
	bg := context.Background()
	name := stream(i % crStreams)
	m, err := w.seq(i)
	if err != nil {
		return sample{}, err
	}
	if err := w.db.PutStream(name, m); err != nil {
		return sample{}, err
	}
	var before lahar.CacheStats
	if tr != nil {
		before = w.db.Stats()
	}
	t0 := time.Now()
	top1, err := w.db.TopKCtx(bg, name, "q", 1)
	t1 := time.Now()
	if err != nil {
		return sample{}, err
	}
	top, err := w.db.TopKCtx(bg, name, "q", crK)
	t2 := time.Now()
	if err != nil {
		return sample{}, err
	}
	got := fromResults(top)
	for k := range got {
		if got[k].conf, err = w.db.ConfidenceCtx(bg, name, "q", got[k].out, 0); err != nil {
			return sample{}, err
		}
	}
	t3 := time.Now()
	if tr != nil {
		root := tr.root(i, t0)
		tr.child(root, "lahar.topk", t0, t1)
		tr.child(root, "lahar.topk", t1, t2)
		tr.child(root, "lahar.conf", t2, t3)
		tr.end(root, t3)
		after := w.db.Stats()
		w.cnt.add("lahar.extensions_per_req", before.Extensions, after.Extensions)
		w.cnt.add("lahar.misses_per_req", before.Misses, after.Misses)
	}
	if len(top1) != 1 || len(top) == 0 || digest(fromResults(top1)) != digest(fromResults(top[:1])) {
		return sample{}, fmt.Errorf("%w: top-1 %v is not the head of top-%d %v", errWrongAnswer, top1, crK, top)
	}
	if tr == nil && i%checkEvery == 0 {
		w.got[i] = got
	}
	return sample{lat: ms(t3.Sub(t0)), first: ms(t1.Sub(t0)), digest: digest(got)}, nil
}

// check compares sampled requests' top-10 with a fresh pruned drain, and
// their confidences with the dense reference DP.
func (w *coldRank) check() (map[int]error, error) {
	bad := map[int]error{}
	pr := core.PrepareTransducer(w.in.query)
	for i, got := range w.got {
		m, err := w.seq(i)
		if err != nil {
			return nil, err
		}
		eng, err := pr.BindValidated(m)
		if err != nil {
			return nil, err
		}
		want, err := throughTies(context.Background(), eng, crK)
		if err != nil {
			return nil, err
		}
		if err := compareRanked(got, want, crK); err != nil {
			bad[i] = fmt.Errorf("%w: %v", errWrongAnswer, err)
			continue
		}
		for _, a := range got {
			if c := conf.DetDense(w.in.query, m, a.out); math.Abs(c-a.conf) > confTol {
				bad[i] = fmt.Errorf("%w: confidence of %v is %v, reference %v", errWrongAnswer, a.out, a.conf, c)
				break
			}
		}
	}
	return bad, nil
}

func (w *coldRank) replay(_ context.Context, pass string, e int, tr *tracer) ([]uint64, error) {
	bg := context.Background()
	pr := core.PrepareTransducer(w.in.query, core.WithRankedWorkers(1))
	pt := transducer.Preprocess(w.in.query)
	nt, dt := kernel.NewNFATables(pt), kernel.NewDetTables(w.in.query)
	uniformK, uniform := w.in.query.UniformK()
	digs := make([]uint64, w.cycle())
	for j := range digs {
		i := e*w.cycle() + j
		m, err := w.seq(i)
		if err != nil {
			return nil, err
		}
		var got []answer
		if pass == "B" {
			// The store's part through core: the miss binds with
			// Prepared.ExtendValidated, then the engine ranks and scores.
			t0 := time.Now()
			eng, err := pr.ExtendValidated(nil, m)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if _, err := eng.TopKCtx(bg, 1); err != nil {
				return nil, err
			}
			t2 := time.Now()
			top, err := eng.TopKCtx(bg, crK)
			t3 := time.Now()
			if err != nil {
				return nil, err
			}
			got = fromCore(top)
			for k := range got {
				if got[k].conf, err = eng.ConfidenceCtx(bg, got[k].out, 0); err != nil {
					return nil, err
				}
			}
			t4 := time.Now()
			root := tr.root(i, t0)
			tr.child(root, "core.bind", t0, t1)
			tr.child(root, "core.first", t1, t2)
			tr.child(root, "core.rest", t2, t3)
			tr.child(root, "core.conf", t3, t4)
			tr.end(root, t4)
			w.cnt.addKernel(kernel.PruneStats{}, eng.PruneStats())
		} else {
			// The engine's part through ranked and kernel: the extendable
			// enumeration core binds on a miss, and the Thm 4.6 DP.
			t0 := time.Now()
			en := ranked.NewEnumerator(pt, m, ranked.WithTables(nt), ranked.WithWorkers(1), ranked.WithExtendable())
			top, err := drain(bg, en, crK)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			got = fromRanked(top)
			for k := range got {
				if uniform {
					got[k].conf, err = kernel.DetUniformConfidenceCtx(bg, dt, m.View(), uniformK, got[k].out, nil)
				} else {
					got[k].conf, err = kernel.DetConfidenceCtx(bg, dt, m.View(), got[k].out, nil)
				}
				if err != nil {
					return nil, err
				}
			}
			t2 := time.Now()
			root := tr.root(i, t0)
			tr.child(root, "ranked.next", t0, t1)
			tr.child(root, "kernel.conf", t1, t2)
			tr.end(root, t2)
		}
		digs[j] = digest(got)
	}
	return digs, nil
}

func (w *coldRank) layers(tr *tracer, n int) map[string]float64 {
	m := map[string]float64{
		"lahar.topk_ms":            tr.p50("A", "lahar.topk", n),
		"lahar.conf_ms":            tr.p50("A", "lahar.conf", n),
		"lahar.self_ms":            tr.selfP50("A", "B", n),
		"lahar.extensions_per_req": w.cnt.perReq("lahar.extensions_per_req"),
		"lahar.misses_per_req":     w.cnt.perReq("lahar.misses_per_req"),
		"core.bind_ms":             tr.p50("B", "core.bind", n),
		"core.first_ms":            tr.p50("B", "core.first", n),
		"core.rest_ms":             tr.p50("B", "core.rest", n),
		"core.conf_ms":             tr.p50("B", "core.conf", n),
		"core.self_ms":             tr.selfP50("B", "C", n),
		"ranked.next_ms":           tr.p50("C", "ranked.next", n),
		"kernel.conf_ms":           tr.p50("C", "kernel.conf", n),
	}
	w.cnt.kernelMetrics(m)
	return m
}
