package core

import (
	"context"
	"math"

	"markovseq/internal/markov"
	"markovseq/internal/ranked"
)

// Sliding-window evaluation. The serving layer's SlidingTopK used to
// rebind a fresh engine per window and redo the full window DP per
// slide; a StreamRun instead walks the stream once, and the same cursor
// serves a frozen sweep and a live watcher whose stream keeps growing:
//
//   - window extraction is zero-copy (markov.Windower.SharedWindow: the
//     parent's transition matrices and compiled CSR steps are shared, so
//     a window costs O(|Σ|) instead of O(w·|Σ|²));
//   - the only resident DP state is the windower's forward marginals,
//     grown by O(|Σ|²) per appended event (markov.Windower.Extend) and
//     reclaimed behind the cursor (see Next);
//   - for transducer plans, per-window top-k runs on a ranked.Sweeper —
//     the lean sequential form of the ranked enumerator — instead of a
//     full Engine with its mutex and memo, and the sweeper recycles each
//     window's checkpoint storage into the next window's. The emitted
//     answers are bit-identical to the engine path, and an answerless
//     window costs the sweeper about one pass over it, because its
//     drain finds no root answer. Other plan classes fall back to a
//     per-window engine over the shared window.
//
// Yielded windows are bit-identical to a fresh run over the extended
// sequence (shared CSR steps and identical marginal arithmetic preserve
// value bits).

// StreamRun is a sliding-window cursor: it yields every complete window
// of the current sequence, returns ok=false when it has caught up with
// the frontier, and resumes after each Extend. It is a sequential cursor
// owned by one goroutine at a time; Extend and Next must be serialized by
// the caller. Per-window top-k (NewEval) may then be fanned out.
type StreamRun struct {
	pr             *Prepared
	wr             *markov.Windower // covers the current sequence
	window, stride int
	idx            int // next window index
	start          int // next window start position, 1-based
}

// Window is one window of a sweep, answerless or not.
type Window struct {
	Index      int
	Start, End int // 1-based inclusive stream positions
	// Seq is the window's marginal sequence, never nil, as a zero-copy
	// overlay of the stream (read-only; see markov.Windower.SharedWindow).
	Seq *markov.Sequence
}

// Windows starts a sliding sweep of m with the given window and stride
// (both ≥ 1). The sequence may be shorter than the window; windows are
// yielded as Extend grows it past the threshold.
func (pr *Prepared) Windows(m *markov.Sequence, window, stride int) *StreamRun {
	if window < 1 || stride < 1 {
		panic("core: Windows window and stride must be >= 1")
	}
	return &StreamRun{pr: pr, wr: m.Windower(), window: window, stride: stride, start: 1}
}

// Deprecated: StreamWindows is an alias of Windows.
func (pr *Prepared) StreamWindows(m *markov.Sequence, window, stride int) *StreamRun {
	return pr.Windows(m, window, stride)
}

// Len returns the number of complete windows of the current sequence,
// yielded or not.
func (r *StreamRun) Len() int {
	if n := r.wr.Len(); n >= r.window {
		return (n-r.window)/r.stride + 1
	}
	return 0
}

// Extend grows the sweep over m2, an extension of the current sequence
// (markov.Sequence.Extended). Only the appended positions' marginals are
// computed; every already-yielded window carries over.
func (r *StreamRun) Extend(m2 *markov.Sequence) { r.wr.Extend(m2) }

// Next yields the next complete window, or ok=false once the cursor has
// caught up with the stream frontier (call again after Extend).
//
// Marginal rows older than the next window's start are reclaimed after
// each yield (markov.Windower.EvictBefore): no future window or Extend
// can read them, so a caught-up watcher holds O(window) resident
// marginal state no matter how long the stream has run.
func (r *StreamRun) Next() (Window, bool) {
	end := r.start + r.window - 1
	if end > r.wr.Len() {
		return Window{}, false
	}
	w := Window{Index: r.idx, Start: r.start, End: end, Seq: r.wr.SharedWindow(r.start, end)}
	r.idx++
	r.start += r.stride
	// The next window (1-based start) seeds from marginal row start-1;
	// older rows can never be read again. EvictBefore clamps to keep the
	// final row, which Extend seeds the appended marginals from.
	r.wr.EvictBefore(r.start - 1)
	return w, true
}

// ResidentMarginals reports the number of marginal rows the run's
// windower currently holds — bounded on a caught-up stream (see Next),
// exposed so serving layers and tests can assert flat memory.
func (r *StreamRun) ResidentMarginals() int { return r.wr.Resident() }

// WindowEval holds the per-goroutine evaluation state of a sweep: a
// ranked.Sweeper for transducer plans (engine-free fast path), or
// nothing for the engine-backed fallback. One WindowEval serves any
// number of windows sequentially; parallel window fan-out uses one per
// worker.
type WindowEval struct {
	pr *Prepared
	sw *ranked.Sweeper
}

// NewEval returns fresh per-goroutine evaluation state for this run's
// plan: a ranked.Sweeper over the prepared base tables for transducer
// plans.
func (r *StreamRun) NewEval() *WindowEval {
	ev := &WindowEval{pr: r.pr}
	if r.pr.t != nil {
		ev.sw = ranked.NewSweeper(r.pr.pt, ranked.WithTables(r.pr.baseNT))
	}
	return ev
}

// TopK evaluates one window's top-k under the plan's ranking, in ranked
// order. The answers are bit-identical to BindValidated(w.Seq).TopKCtx(ctx,
// k); an answerless window returns no answers. On a context error the
// window is incomplete and no partial answers are returned.
func (ev *WindowEval) TopK(ctx context.Context, w Window, k int) ([]Answer, error) {
	if ev.sw != nil {
		top, err := ev.sw.TopK(ctx, w.Seq, k)
		if err != nil {
			return nil, err
		}
		out := make([]Answer, len(top))
		for i, a := range top {
			out[i] = Answer{Output: a.Output, Score: math.Exp(a.LogEmax), Kind: "E_max"}
		}
		return out, nil
	}
	eng, err := ev.pr.BindValidated(w.Seq)
	if err != nil {
		return nil, err
	}
	top, err := eng.TopKCtx(ctx, k)
	if err != nil {
		return nil, err
	}
	return top, nil
}
