package core

import (
	"context"
	"math"

	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/ranked"
)

// Sliding-window sweep evaluation. The serving layer's SlidingTopK used
// to rebind a fresh engine per window and redo the full window DP per
// slide; a WindowRun instead walks the stream once:
//
//   - window extraction is zero-copy (markov.Windower.SharedWindow: the
//     parent's transition matrices and compiled CSR steps are shared, so
//     a window costs O(|Σ|) instead of O(w·|Σ|²));
//   - a kernel.WindowEvaluator maintains the composed MaxLog step
//     operator of the current window with two-stack sliding-window
//     aggregation (amortized O(1) operator combines per stride advance)
//     and yields each window's frontier, whose accepting reachability
//     gates the per-window top-k: a window with no structurally
//     reachable accepting cell provably has no answers at any k, so it
//     is skipped without binding anything — an exact (float-independent)
//     optimization. The gate is adaptive: composing operators costs
//     more per window than the savings on workloads where every window
//     has answers, so after gateProbeWindows consecutive non-empty
//     windows the gate drops out for the rest of the sweep (results are
//     exact either way — the gate only ever skips provably-empty work);
//   - for transducer plans, per-window top-k runs on a ranked.Sweeper —
//     the lean sequential form of the ranked enumerator — instead of a
//     full Engine with its mutex, memo, and checkpoint LRU. The emitted
//     answers are bit-identical to the engine path. Other plan classes
//     fall back to a per-window engine over the shared window.
type WindowRun struct {
	pr             *Prepared
	wr             *markov.Windower
	gate           *kernel.WindowEvaluator // nil for non-transducer plans or a dropped gate
	gateHits       int                     // empty windows the gate found so far
	n              int
	window, stride int
	count          int
	idx            int // next window index
	start          int // next window start position, 1-based
}

// gateProbeWindows is the adaptive-gate probe length: the emptiness gate
// runs for this many windows, and if none of them was empty it is
// dropped for the remainder of the sweep. On dense workloads (every
// window has answers) the gate's operator composes are pure overhead;
// on sparse ones (a selective transducer over a long stream) each empty
// window it catches saves a full ranked enumeration. A handful of
// windows is enough to tell the regimes apart.
const gateProbeWindows = 8

// Window is one window of a sweep. Empty means the gate proved the
// window has no answers for any k (no accepting cell of the base
// transducer is reachable); Seq is nil in that case.
type Window struct {
	Index      int
	Start, End int // 1-based inclusive stream positions
	Empty      bool
	// Seq is the window's marginal sequence as a zero-copy overlay of
	// the stream (read-only; see markov.Windower.SharedWindow).
	Seq *markov.Sequence
}

// Windows starts a sliding sweep of m with the given window and stride
// (both ≥ 1; window > m.Len() yields an empty run). The run is a
// sequential cursor — call Next from one goroutine; per-window top-k
// (NewEval) may then be fanned out.
func (pr *Prepared) Windows(m *markov.Sequence, window, stride int) *WindowRun {
	if window < 1 || stride < 1 {
		panic("core: Windows window and stride must be >= 1")
	}
	r := &WindowRun{
		pr:     pr,
		wr:     m.Windower(),
		n:      m.Len(),
		window: window,
		stride: stride,
		start:  1,
	}
	if r.n >= window {
		r.count = (r.n-window)/stride + 1
	}
	// The gate runs the base transducer's MaxLog operator product over
	// the raw stream view. It is exact for transducer plans: the ranked
	// enumeration's answers are exactly the outputs of accepting runs
	// over positive-probability worlds, so "no accepting cell reachable"
	// ⟺ "top-k empty for every k". S-projector plans rank by different
	// scores (confidence / I_max) whose emptiness we do not gate here.
	if pr.t != nil && r.count > 0 {
		r.gate = kernel.NewWindowEvaluator(pr.baseNT, m.View(), r.wr, window, stride, kernel.MaxLog)
	}
	return r
}

// Len returns the total number of windows of the sweep.
func (r *WindowRun) Len() int { return r.count }

// Next yields the next window, or ok=false when the sweep is done.
func (r *WindowRun) Next() (Window, bool) {
	if r.idx >= r.count {
		return Window{}, false
	}
	w := Window{Index: r.idx, Start: r.start, End: r.start + r.window - 1}
	if r.gate != nil {
		wf, ok := r.gate.Next()
		if !ok || wf.Start != w.Start {
			panic("core: window gate out of sync with sweep cursor")
		}
		w.Empty = !wf.NonEmpty
		if w.Empty {
			r.gateHits++
		} else if r.idx+1 >= gateProbeWindows && r.gateHits == 0 {
			r.gate = nil // dense sweep: gating costs more than it saves
		}
	}
	if !w.Empty {
		w.Seq = r.wr.SharedWindow(w.Start, w.End)
	}
	r.idx++
	r.start += r.stride
	return w, true
}

// WindowEval holds the per-goroutine evaluation state of a sweep: a
// ranked.Sweeper for transducer plans (engine-free fast path), or
// nothing for the engine-backed fallback. One WindowEval serves any
// number of windows sequentially; parallel window fan-out uses one per
// worker.
type WindowEval struct {
	pr *Prepared
	sw *ranked.Sweeper
}

// NewEval returns fresh evaluation state for this run's plan.
func (r *WindowRun) NewEval() *WindowEval { return r.pr.newEval() }

// newEval returns fresh per-goroutine window evaluation state: a
// ranked.Sweeper over the prepared base tables for transducer plans.
func (pr *Prepared) newEval() *WindowEval {
	ev := &WindowEval{pr: pr}
	if pr.t != nil {
		ev.sw = ranked.NewSweeper(pr.pt, ranked.WithTables(pr.baseNT))
	}
	return ev
}

// TopK evaluates one window's top-k under the plan's ranking, in ranked
// order. Empty windows return nil without work. The answers are
// bit-identical to BindValidated(w.Seq).TopKCtx(ctx, k). On a context
// error the window is incomplete and no partial answers are returned.
func (ev *WindowEval) TopK(ctx context.Context, w Window, k int) ([]Answer, error) {
	if w.Empty {
		return nil, ctx.Err()
	}
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
