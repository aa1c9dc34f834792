package lahar

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"markovseq/internal/automata"
	"markovseq/internal/conf"
	"markovseq/internal/core"
	"markovseq/internal/markov"
)

// MatchProb evaluates a Boolean event query in the Lahar style (Ré et
// al., "Event queries on correlated probabilistic streams"): the
// probability that the stream's random world is in the language of the
// automaton, Pr(S ∈ L(A)). Internally this is the nonzero-answer
// primitive of the paper with its probability retained: a lazy subset
// construction interleaved with the Markov dynamic program.
//
// Results are cached per (stream version, length, automaton), so
// repeating an event query on an unchanged stream is a map lookup; the
// automaton must not be mutated after the call. Replacing or appending
// to the stream starts a fresh cache generation (appends change every
// acceptance probability), and each generation is capped at
// maxEventCacheProbs distinct automata — on overflow the generation is
// dropped and rebuilt rather than growing without bound.
func (db *DB) MatchProb(stream string, a *automata.NFA) (float64, error) {
	db.mu.RLock()
	se, ok := db.streams[stream]
	var m *markov.Sequence
	var cached, found = 0.0, false
	if ok {
		m = se.m
		if ce, ok2 := db.events[stream]; ok2 && ce.sv == se.version && ce.slen == m.Len() {
			cached, found = ce.probs[a]
		}
	}
	db.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("lahar: unknown stream %q", stream)
	}
	if a.Alphabet.Size() != m.Nodes.Size() {
		return 0, fmt.Errorf("lahar: event automaton reads %d symbols, stream has %d nodes",
			a.Alphabet.Size(), m.Nodes.Size())
	}
	if found {
		db.stats.hits.Add(1)
		return cached, nil
	}
	db.stats.misses.Add(1)
	p := conf.AcceptanceProb(a, m)
	db.mu.Lock()
	if cse, ok := db.streams[stream]; ok && cse.m == m {
		ce := db.events[stream]
		if ce == nil || ce.sv != cse.version || ce.slen != m.Len() {
			ce = &eventCacheEntry{sv: cse.version, slen: m.Len(), probs: make(map[any]float64)}
			db.events[stream] = ce
		}
		if len(ce.probs) >= maxEventCacheProbs {
			ce.probs = make(map[any]float64)
			db.stats.invalidations.Add(1)
		}
		ce.probs[a] = p
	}
	db.mu.Unlock()
	return p, nil
}

// StreamResult is one stream's contribution to a cross-stream ranking.
type StreamResult struct {
	Stream string
	Result
}

// TopKAcross evaluates the query over every named stream and merges the
// per-stream rankings into one global top-k by score. Lahar's warehousing
// scenario — one Markov sequence per tracked object, one query over the
// fleet — reduces to exactly this merge. Each stream contributes at most
// its own top-k (no deeper answer can enter the global top-k, since
// per-stream rankings are non-increasing).
//
// Streams are evaluated concurrently over the store's worker pool (see
// WithWorkers; the default size is runtime.GOMAXPROCS(0)): at most that
// many evaluation goroutines exist at any moment. Every failing stream
// contributes its error to the joined error; partial results are not
// returned. Equivalent to TopKAcrossCtx with context.Background() — the
// store's deadline and in-flight limit still apply.
func (db *DB) TopKAcross(streams []string, qname string, k int) ([]StreamResult, error) {
	return db.TopKAcrossCtx(context.Background(), streams, qname, k)
}

// topKAcross is the limiter-free fan-out behind TopKAcross/TopKAcrossCtx.
// Per-stream evaluations go through db.topK (not the public TopKCtx):
// the outer call already holds the single in-flight slot, so the inner
// work must not be shed by the limiter it is running under. On
// cancellation no new streams start, every spawned worker is awaited
// (no goroutine leaks), and ctx.Err() is returned.
func (db *DB) topKAcross(ctx context.Context, streams []string, qname string, k int) ([]StreamResult, error) {
	if len(streams) == 0 {
		streams = db.Streams()
	}
	type streamOut struct {
		res []Result
		err error
	}
	outs := make([]streamOut, len(streams))
	var wg sync.WaitGroup
	sem := make(chan struct{}, db.workers)
	for i, name := range streams {
		if ctx.Err() != nil {
			break // stop issuing work; already-spawned workers self-cancel
		}
		// Acquire before spawning so goroutine creation itself is bounded
		// by the pool size, not just execution.
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := db.topK(ctx, name, qname, k)
			if err != nil {
				err = fmt.Errorf("stream %q: %w", name, err)
			}
			outs[i] = streamOut{res: res, err: err}
		}(i, name)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("lahar: TopKAcross: %w", err)
	}
	var errs []error
	for i := range outs {
		if outs[i].err != nil {
			errs = append(errs, outs[i].err)
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("lahar: TopKAcross: %w", errors.Join(errs...))
	}
	var all []StreamResult
	for i, name := range streams {
		for _, r := range outs[i].res {
			all = append(all, StreamResult{Stream: name, Result: r})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// WindowResult is one sliding-window evaluation result.
type WindowResult struct {
	// Start and End are the 1-based inclusive window bounds.
	Start, End int
	// Top holds the window's best-ranked answers.
	Top []Result
}

// SlidingTopK evaluates the query over every length-`window` slice of the
// stream (stride positions apart) and reports the per-window top-k. Each
// window's marginal distribution is exact (markov.Window), so this is the
// streaming evaluation mode of a Lahar-style warehouse: "what was the
// cart doing in each half-hour slice?".
//
// The sweep is amortized end to end (core.Prepared.Windows): windows
// are zero-copy overlays of the stream, a two-stack operator aggregation
// gates provably-empty windows, and transducer plans rank through the
// lean sequential sweeper instead of a fresh engine per window — with
// results bit-identical to binding one engine per window, the reference
// the sliding tests check against. With the ParallelWindows option
// the windows fan out over the store's worker pool. Equivalent to
// SlidingTopKCtx with context.Background() — the store's deadline and
// in-flight limit still apply.
func (db *DB) SlidingTopK(stream, qname string, window, stride, k int) ([]WindowResult, error) {
	return db.SlidingTopKCtx(context.Background(), stream, qname, window, stride, k)
}

// slidingTopK is the limiter-free windowed evaluation behind
// SlidingTopK/SlidingTopKCtx (the outer call holds the in-flight slot).
// Cancellation mid-sweep returns the completed prefix of windows plus
// ctx.Err(): every window before the first unfinished one, in order —
// the window a deadline interrupted is never half-reported.
func (db *DB) slidingTopK(ctx context.Context, stream, qname string, window, stride, k int) ([]WindowResult, error) {
	if window < 1 || stride < 1 {
		return nil, fmt.Errorf("lahar: window and stride must be ≥ 1")
	}
	m, prepared, err := db.lookup(stream, qname)
	if err != nil {
		return nil, err
	}
	if window > m.Len() {
		return nil, fmt.Errorf("lahar: window %d exceeds stream %q length %d", window, stream, m.Len())
	}
	run := prepared.Windows(m, window, stride)
	if !db.parallelWindows || run.Len() < 2 {
		return db.sweepSerial(ctx, run, k)
	}
	return db.sweepParallel(ctx, run, k)
}

// sweepSerial drains the sweep on the calling goroutine, polling ctx
// between windows so a mid-sweep deadline costs at most one window of
// extra work before the completed prefix is returned.
func (db *DB) sweepSerial(ctx context.Context, run *core.WindowRun, k int) ([]WindowResult, error) {
	out := make([]WindowResult, 0, run.Len())
	eval := run.NewEval()
	for {
		if cerr := ctx.Err(); cerr != nil {
			return out, fmt.Errorf("lahar: SlidingTopK: %w", cerr)
		}
		w, ok := run.Next()
		if !ok {
			return out, nil
		}
		top, err := eval.TopK(ctx, w, k)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return out, fmt.Errorf("lahar: SlidingTopK: %w", cerr)
			}
			return nil, fmt.Errorf("lahar: window [%d,%d]: %w", w.Start, w.End, err)
		}
		out = append(out, WindowResult{Start: w.Start, End: w.End, Top: resultsOf(top)})
	}
}

// sweepParallel fans the windows out over the worker pool. The cursor
// stays on the calling goroutine (the sliding aggregation is inherently
// sequential and costs microseconds per window); each worker owns one
// evaluator for the whole sweep. On cancellation no new windows start,
// every spawned worker is awaited, and the completed prefix of windows
// is returned with ctx.Err().
func (db *DB) sweepParallel(ctx context.Context, run *core.WindowRun, k int) ([]WindowResult, error) {
	type slot struct {
		res  WindowResult
		err  error
		done bool
	}
	outs := make([]slot, run.Len())
	workers := min(db.workers, run.Len())
	evals := make(chan *core.WindowEval, workers)
	for i := 0; i < workers; i++ {
		evals <- run.NewEval()
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for {
		if ctx.Err() != nil {
			break // stop issuing windows; spawned workers self-cancel
		}
		w, ok := run.Next()
		if !ok {
			break
		}
		// Acquire before spawning so goroutine creation itself is bounded
		// by the pool size, not just execution.
		sem <- struct{}{}
		wg.Add(1)
		go func(w core.Window) {
			defer wg.Done()
			defer func() { <-sem }()
			eval := <-evals
			top, err := eval.TopK(ctx, w, k)
			evals <- eval
			if err != nil {
				outs[w.Index] = slot{err: fmt.Errorf("window [%d,%d]: %w", w.Start, w.End, err)}
				return
			}
			outs[w.Index] = slot{res: WindowResult{Start: w.Start, End: w.End, Top: resultsOf(top)}, done: true}
		}(w)
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		out := make([]WindowResult, 0, len(outs))
		for i := range outs {
			if !outs[i].done {
				break
			}
			out = append(out, outs[i].res)
		}
		return out, fmt.Errorf("lahar: SlidingTopK: %w", cerr)
	}
	var errs []error
	for i := range outs {
		if outs[i].err != nil {
			errs = append(errs, outs[i].err)
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("lahar: SlidingTopK: %w", errors.Join(errs...))
	}
	out := make([]WindowResult, len(outs))
	for i := range outs {
		out[i] = outs[i].res
	}
	return out, nil
}
