package kernel

import "math"

// Two-stack sliding-window aggregation (SWAG) over step operators.
//
// A window [a,b] needs the composed product O_a ⊗ … ⊗ O_{b-1}
// (operator.go). Recomputing it per slide costs O(w) composes; the
// classic two-stack queue brings that to amortized O(1): a back stack
// accumulates pushed operators together with their running left-to-right
// product, and a front stack holds suffix products of the older half so
// the queue aggregate is always front.top ⊗ backAggregate. When the
// front empties, the back flips over — each element composed into a
// running suffix — so every operator is composed at most three times
// over its queue lifetime regardless of window length or stride.
//
// WindowEvaluator has no production caller: sliding windows go straight
// to the ranked sweeper (core.StreamRun), whose drain finds an
// answerless window empty. It stays only for the frozen laharbench
// traced pass C, and goes with that call when the benchmark is next
// revised (ROADMAP item 3).

// opQueue is the two-stack SWAG queue. Popped and flipped operators are
// recycled through a freelist, so steady-state sliding performs no
// operator allocations.
type opQueue struct {
	dim   int
	sr    Semiring
	front []*Op // suffix products; top (last) covers all front elements
	back  []*Op // raw step operators in push order
	bagg  *Op   // product of back, oldest-first; identity when back empty
	spare *Op   // double buffer for bagg updates
	one   *Op   // cached identity, the flip seed (alloc-free steady state)
	free  []*Op
	sc    OpScratch
}

func newOpQueue(dim int, sr Semiring) *opQueue {
	return &opQueue{
		dim:   dim,
		sr:    sr,
		bagg:  IdentityOp(dim, sr),
		spare: &Op{},
		one:   IdentityOp(dim, sr),
	}
}

func (q *opQueue) alloc() *Op {
	if n := len(q.free); n > 0 {
		op := q.free[n-1]
		q.free = q.free[:n-1]
		return op
	}
	return &Op{}
}

func (q *opQueue) recycle(op *Op) { q.free = append(q.free, op) }

// push appends an operator to the queue; the queue takes ownership.
func (q *opQueue) push(op *Op) {
	q.back = append(q.back, op)
	ComposeInto(q.spare, q.bagg, op, &q.sc)
	q.bagg, q.spare = q.spare, q.bagg
}

// pop removes the oldest operator, flipping the back stack into suffix
// products when the front is exhausted.
func (q *opQueue) pop() {
	if len(q.front) == 0 {
		// Flip: compose back newest-to-oldest so the front top ends up
		// covering the oldest remaining element first.
		acc := q.one
		for i := len(q.back) - 1; i >= 0; i-- {
			next := q.alloc()
			ComposeInto(next, q.back[i], acc, &q.sc)
			q.front = append(q.front, next)
			acc = next
		}
		for _, op := range q.back {
			q.recycle(op)
		}
		q.back = q.back[:0]
		q.resetBagg()
	}
	n := len(q.front)
	if n == 0 {
		panic("kernel: pop from empty operator queue")
	}
	q.recycle(q.front[n-1])
	q.front = q.front[:n-1]
}

func (q *opQueue) resetBagg() {
	q.bagg.sr, q.bagg.dim, q.bagg.ident = q.sr, q.dim, true
	q.bagg.rowPtr = q.bagg.rowPtr[:0]
	q.bagg.col = q.bagg.col[:0]
	q.bagg.val = q.bagg.val[:0]
}

// reset empties the queue (used when a stride jumps past the window so
// no queued operator carries over).
func (q *opQueue) reset() {
	for _, op := range q.front {
		q.recycle(op)
	}
	for _, op := range q.back {
		q.recycle(op)
	}
	q.front = q.front[:0]
	q.back = q.back[:0]
	q.resetBagg()
}

// aggregateInto composes the queue product into dst: front.top ⊗ bagg,
// with identity short-circuits when either half is empty.
func (q *opQueue) aggregateInto(dst *Op) *Op {
	if n := len(q.front); n > 0 {
		ComposeInto(dst, q.front[n-1], q.bagg, &q.sc)
		return dst
	}
	copyOp(dst, q.bagg)
	return dst
}

// Marginals is the windowed evaluators' view of per-position forward
// marginals: Row(i) is the distribution of S_{i+1} (the marginal
// entering position i+1) and Len is the number of positions covered.
// The indirection lets a long-running stream keep only a resident suffix
// of its marginal table (markov.Windower.EvictBefore) while the
// evaluator keeps indexing by absolute position: rows older than every
// live window are reclaimed instead of pinned by the evaluator's
// reference. Implementations must keep Row(i) valid for every i the
// evaluator can still request — at least the current window start — and
// rows must be treated as read-only.
type Marginals interface {
	Row(i int) []float64
	Len() int
}

// MarginalRows adapts a fully materialized marginal table (as produced
// by markov.Sequence.Forward) to the Marginals interface.
type MarginalRows [][]float64

func (r MarginalRows) Row(i int) []float64 { return r[i] }
func (r MarginalRows) Len() int            { return len(r) }

// WindowFrontier is the DP frontier of one window: the cells x·|Q|+q
// reachable from the window-initial marginal through an accepting-run
// prefix, with their semiring values, plus the accepting reduction.
// Under MaxLog, Best is the best accepting log score (the window's top
// E_max answer score over all outputs); under SumProb it is the total
// accepting run mass. NonEmpty reports whether any accepting cell is
// reachable — a structural (float-independent) fact, so it can gate
// downstream work exactly: NonEmpty == false iff the window's top-k is
// empty for every k.
//
// Cells and Vals alias evaluator-owned buffers and are only valid until
// the next call to Next.
type WindowFrontier struct {
	Start, End int // 1-based inclusive window bounds
	Cells      []int32
	Vals       []float64
	Best       float64
	NonEmpty   bool
}

// WindowEvaluator slides a window over a compiled sequence view,
// yielding each window's frontier with amortized O(1) operator combines
// per advance. It is single-use and not safe for concurrent use; create
// one per sweep.
type WindowEvaluator struct {
	nt     *NFATables
	v      *SeqView
	alpha  Marginals
	window int
	stride int
	sr     Semiring

	q        *opQueue
	qlo, qhi int // step-index range [qlo,qhi) currently enqueued
	start    int // next window start, 1-based
	prod     *Op
	ident    *Op
	seed     frontier
	out      frontier
	wf       WindowFrontier
}

// NewWindowEvaluator builds a sliding evaluator over view v (the
// compiled form of the full sequence) with per-position forward
// marginals alpha (alpha.Row(i) is the marginal entering position i+1;
// wrap a plain table in MarginalRows). window and stride must be ≥ 1;
// strides larger than the window are allowed and reset the queue across
// the gap.
func NewWindowEvaluator(nt *NFATables, v *SeqView, alpha Marginals, window, stride int, sr Semiring) *WindowEvaluator {
	if window < 1 || stride < 1 {
		panic("kernel: NewWindowEvaluator window and stride must be >= 1")
	}
	if alpha.Len() != v.N {
		panic("kernel: NewWindowEvaluator marginals do not match view length")
	}
	dim := v.K * nt.States
	return &WindowEvaluator{
		nt:     nt,
		v:      v,
		alpha:  alpha,
		window: window,
		stride: stride,
		sr:     sr,
		q:      newOpQueue(dim, sr),
		prod:   &Op{},
		ident:  IdentityOp(dim, sr),
	}
}

// Len returns the total number of windows the evaluator will yield.
func (w *WindowEvaluator) Len() int {
	if w.v.N < w.window {
		return 0
	}
	return (w.v.N-w.window)/w.stride + 1
}

// Extend swaps in a longer view of the same stream together with its
// forward marginals, so the evaluator keeps sliding over an append-only
// stream without rebuilding any queued operator: v must extend the
// current view (shared prefix steps, as produced by SeqView.Extend), and
// alpha must extend the current marginals. Next then yields the windows
// that the appended positions completed — each new position costs the
// same amortized O(1) operator combines as a cold sweep, and the
// frontiers are bit-identical to a from-scratch evaluator over the
// extended view.
func (w *WindowEvaluator) Extend(v *SeqView, alpha Marginals) {
	if v.N < w.v.N || v.K != w.v.K {
		panic("kernel: WindowEvaluator.Extend view does not extend the current view")
	}
	if alpha.Len() != v.N {
		panic("kernel: WindowEvaluator.Extend marginals do not match view length")
	}
	w.v = v
	w.alpha = alpha
}

// Next advances to the next window and returns its frontier. The second
// result is false once the sweep is exhausted. The returned frontier's
// slices are reused by subsequent calls.
func (w *WindowEvaluator) Next() (WindowFrontier, bool) {
	if w.start == 0 {
		w.start = 1
	}
	a := w.start
	b := a + w.window - 1
	if b > w.v.N {
		return WindowFrontier{}, false
	}
	// A window [a,b] consumes transition steps a-1 .. b-2, i.e. the
	// half-open step range [a-1, b-1) (empty for length-1 windows).
	lo, hi := a-1, b-1
	if lo >= w.qhi {
		w.q.reset()
		w.qlo, w.qhi = lo, lo
	}
	for w.qlo < lo {
		w.q.pop()
		w.qlo++
	}
	for w.qhi < hi {
		op := w.q.alloc()
		StepOpInto(op, w.nt, &w.v.Steps[w.qhi], w.v.K, w.sr, &w.q.sc)
		w.q.push(op)
		w.qhi++
	}
	w.q.aggregateInto(w.prod)

	seedFrontier(&w.seed, w.nt, w.alpha.Row(a-1), w.sr)
	w.prod.applySeed(&w.seed, &w.out)

	w.wf.Start, w.wf.End = a, b
	w.wf.Cells = w.wf.Cells[:0]
	w.wf.Vals = w.wf.Vals[:0]
	best := math.Inf(-1)
	if w.sr == SumProb {
		best = 0
	}
	nonEmpty := false
	for _, c := range w.out.list {
		v := w.out.val[c]
		w.wf.Cells = append(w.wf.Cells, c)
		w.wf.Vals = append(w.wf.Vals, v)
		if w.nt.Accept[int(c)%w.nt.States] {
			nonEmpty = true
			if w.sr == MaxLog {
				if v > best {
					best = v
				}
			} else {
				best += v
			}
		}
	}
	w.wf.Best = best
	w.wf.NonEmpty = nonEmpty
	w.start = a + w.stride
	return w.wf, true
}
