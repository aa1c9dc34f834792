package core

import (
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
)

// Append-only sliding evaluation. A WindowRun sweeps a frozen stream
// once; a StreamRun is its open-ended sibling for streams that grow: the
// cursor yields every complete window of the current sequence, returns
// ok=false when it has caught up with the frontier, and resumes — with
// all DP state resident — after each Extend. The resident state is
//
//   - the markov.Windower's forward marginals, grown by O(|Σ|²) per
//     appended event instead of recomputed (markov.Windower.Extend);
//   - the two-stack SWAG emptiness gate for transducer plans, whose
//     queued window operators survive the append untouched
//     (kernel.WindowEvaluator.Extend), so each appended event costs
//     amortized O(1) operator combines regardless of stream length.
//
// Unlike WindowRun, the gate is never adaptively dropped: on a live
// stream it is the resident window-frontier state itself, and its
// per-event cost is the amortized O(1) that makes appends cheap.
// Yielded windows are bit-identical to a from-scratch WindowRun over the
// extended sequence (shared CSR steps and identical marginal arithmetic
// preserve value bits).
//
// A StreamRun is a sequential cursor owned by one goroutine at a time;
// Extend and Next must be serialized by the caller.
type StreamRun struct {
	pr             *Prepared
	wr             *markov.Windower
	gate           *kernel.WindowEvaluator // transducer plans only
	n              int
	window, stride int
	idx            int // next window index
	start          int // next window start position, 1-based
}

// StreamWindows starts an append-aware sliding sweep of m with the given
// window and stride (both ≥ 1). The sequence may be shorter than the
// window; windows are yielded as Extend grows it past the threshold.
func (pr *Prepared) StreamWindows(m *markov.Sequence, window, stride int) *StreamRun {
	if window < 1 || stride < 1 {
		panic("core: StreamWindows window and stride must be >= 1")
	}
	r := &StreamRun{
		pr:     pr,
		wr:     m.Windower(),
		n:      m.Len(),
		window: window,
		stride: stride,
		start:  1,
	}
	if pr.t != nil {
		r.gate = kernel.NewWindowEvaluator(pr.baseNT, m.View(), r.wr, window, stride, kernel.MaxLog)
	}
	return r
}

// Extend grows the sweep over m2, an extension of the current sequence
// (markov.Sequence.Extended). Only the appended positions' marginals and
// step operators are computed; every already-yielded window and all
// queued SWAG state carry over.
func (r *StreamRun) Extend(m2 *markov.Sequence) {
	r.wr.Extend(m2)
	r.n = m2.Len()
	if r.gate != nil {
		r.gate.Extend(m2.View(), r.wr)
	}
}

// Next yields the next complete window, or ok=false once the cursor has
// caught up with the stream frontier (call again after Extend).
//
// Marginal rows older than the next window's start are reclaimed after
// each yield (markov.Windower.EvictBefore): no future window, gate step,
// or Extend can read them, so a caught-up watcher holds O(window)
// resident marginal state no matter how long the stream has run.
func (r *StreamRun) Next() (Window, bool) {
	if r.start+r.window-1 > r.n {
		return Window{}, false
	}
	w := Window{Index: r.idx, Start: r.start, End: r.start + r.window - 1}
	if r.gate != nil {
		wf, ok := r.gate.Next()
		if !ok || wf.Start != w.Start {
			panic("core: stream gate out of sync with sweep cursor")
		}
		w.Empty = !wf.NonEmpty
	}
	if !w.Empty {
		w.Seq = r.wr.SharedWindow(w.Start, w.End)
	}
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

// NewEval returns fresh per-goroutine evaluation state for this run's
// plan, exactly as WindowRun.NewEval.
func (r *StreamRun) NewEval() *WindowEval { return r.pr.newEval() }
