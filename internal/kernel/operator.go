package kernel

import "math"

// This file reifies one stream position's DP step as a composable
// semiring operator over the Σ×Q product frontier, the algebraic view
// behind amortized sliding-window evaluation (swag.go):
//
// The Viterbi kernel (viterbi.go) advances a frontier f over cells
// (node x, state q) by one position i with
//
//	f'[y,q'] = ⊕_{x,q} f[x,q] ⊗ μ_i(x,y) · [q' ∈ δ(q,y)]
//
// which is a vector–matrix product over a semiring: (max,×) — (max,+)
// in log space — for Viterbi scores, (+,×) in probability space for
// run mass. Fixing i yields a sparse matrix Op over cells x·|Q|+q,
// and because semiring matrix multiplication is associative, the whole
// window [a,b] collapses into one composed operator
//
//	P = O_a ⊗ O_{a+1} ⊗ … ⊗ O_{b-1}
//
// that maps the window's initial frontier to its final frontier in a
// single application. Overlapping windows share composed prefixes and
// suffixes, which the two-stack aggregation in swag.go exploits (cf.
// Nuel & Ribeca's sparse pattern-distribution products and the
// weight-pushed composition of the weighted-automata literature).
//
// Operators are stored CSR like the rest of the kernel. Duplicate
// transducer edges (q,y,q') with distinct emissions collapse to one
// entry — both semirings here range over runs as state sequences, and
// parallel edges carry the same transition probability μ_i(x,y).
//
// No production path composes operators any more: sliding windows go
// straight to the ranked sweeper (core.StreamRun). This file and swag.go
// stay only because the frozen laharbench traced pass C times the
// emptiness gate through NewWindowEvaluator and MaxLog; they go with
// that call when the benchmark is next revised (ROADMAP item 3).

// Semiring selects the weight algebra of a step operator.
type Semiring uint8

const (
	// MaxLog is the Viterbi semiring (max,×) carried in log space:
	// ⊕ = max, ⊗ = +, zero = -Inf, one = 0. Frontier entries are the
	// best log probability of any run reaching the cell.
	MaxLog Semiring = iota
	// SumProb is the confidence semiring (+,×) in probability space:
	// ⊕ = +, ⊗ = ×, zero = 0, one = 1. Frontier entries are the total
	// probability mass of (world, run) pairs reaching the cell; the
	// accepting total equals the acceptance probability exactly when
	// the transducer's underlying automaton is unambiguous (e.g.
	// deterministic), and upper-bounds it otherwise.
	SumProb
)

// Op is a sparse semiring operator over the Σ×Q product frontier: a
// CSR matrix whose row and column space are the DP cells x·|Q|+q. The
// identity operator is represented implicitly (ident=true, no storage).
// An Op is immutable through its exported API; the SWAG queue recycles
// the backing slices internally.
type Op struct {
	sr     Semiring
	dim    int
	ident  bool
	rowPtr []int32
	col    []int32
	val    []float64
}

// Dim returns the cell-space dimension |Σ|·|Q|.
func (o *Op) Dim() int { return o.dim }

// Semiring returns the operator's weight algebra.
func (o *Op) Semiring() Semiring { return o.sr }

// IsIdentity reports whether o is the (implicit) identity operator.
func (o *Op) IsIdentity() bool { return o.ident }

// NNZ returns the number of stored entries (0 for the identity).
func (o *Op) NNZ() int { return len(o.col) }

// IdentityOp returns the semiring identity operator on dim cells.
func IdentityOp(dim int, sr Semiring) *Op {
	return &Op{sr: sr, dim: dim, ident: true}
}

// OpScratch holds the dense accumulator row shared by operator
// construction and composition. Not safe for concurrent use.
type OpScratch struct {
	acc   []float64
	mark  []bool
	touch []int32
}

func (sc *OpScratch) ensure(n int) {
	if cap(sc.acc) < n {
		sc.acc = make([]float64, n)
		sc.mark = make([]bool, n)
		sc.touch = sc.touch[:0]
		return
	}
	sc.acc = sc.acc[:n]
	sc.mark = sc.mark[:n]
}

// reset clears exactly the touched slots (the all-false invariant of
// mark is maintained the same way frontier does it).
func (sc *OpScratch) reset() {
	for _, i := range sc.touch {
		sc.mark[i] = false
	}
	sc.touch = sc.touch[:0]
}

// NewStepOp builds the step operator of one CSR transition matrix
// against the transducer tables: entry (x·|Q|+q, y·|Q|+q') carries
// μ(x,y) — its log under MaxLog — for every y with μ(x,y) > 0 and every
// q' ∈ δ(q,y). k is the node-alphabet size |Σ|.
func NewStepOp(nt *NFATables, st *Step, k int, sr Semiring, sc *OpScratch) *Op {
	op := &Op{}
	StepOpInto(op, nt, st, k, sr, sc)
	return op
}

// StepOpInto is NewStepOp into caller-owned storage (dst's slices are
// truncated and reused). sc may be nil for a one-shot build.
func StepOpInto(dst *Op, nt *NFATables, st *Step, k int, sr Semiring, sc *OpScratch) {
	if sc == nil {
		sc = new(OpScratch)
	}
	dim := k * nt.States
	sc.ensure(dim)
	dst.sr, dst.dim, dst.ident = sr, dim, false
	dst.rowPtr = append(dst.rowPtr[:0], 0)
	dst.col = dst.col[:0]
	dst.val = dst.val[:0]
	for x := 0; x < k; x++ {
		for q := 0; q < nt.States; q++ {
			for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
				y := int(st.Col[e])
				var w float64
				if sr == MaxLog {
					w = st.LogVal[e]
				} else {
					w = st.Val[e]
				}
				lo, hi := nt.Edges(q, y)
				for t := lo; t < hi; t++ {
					c := int32(y*nt.States + int(nt.Succ[t]))
					// Parallel edges (same q,y,q', different emissions)
					// carry the same weight; keep the first.
					if !sc.mark[c] {
						sc.mark[c] = true
						sc.touch = append(sc.touch, c)
						sc.acc[c] = w
					}
				}
			}
			for _, c := range sc.touch {
				dst.col = append(dst.col, c)
				dst.val = append(dst.val, sc.acc[c])
			}
			sc.reset()
			dst.rowPtr = append(dst.rowPtr, int32(len(dst.col)))
		}
	}
}

// Compose returns a ⊗ b — the operator that applies a first, then b —
// so that applying f to Compose(a,b) equals applying f to a, then b.
func Compose(a, b *Op, sc *OpScratch) *Op {
	dst := &Op{}
	ComposeInto(dst, a, b, sc)
	return dst
}

// ComposeInto composes into caller-owned storage. dst must not alias a
// or b. Identity operands short-circuit to a copy. The entry order of
// each row is deterministic (first-touch order of the CSR walk), which
// keeps SumProb accumulation order — and therefore its floating-point
// result — reproducible across runs.
func ComposeInto(dst *Op, a, b *Op, sc *OpScratch) {
	if a.sr != b.sr || a.dim != b.dim {
		panic("kernel: ComposeInto operands disagree on semiring or dimension")
	}
	if a.ident {
		copyOp(dst, b)
		return
	}
	if b.ident {
		copyOp(dst, a)
		return
	}
	if sc == nil {
		sc = new(OpScratch)
	}
	dim := a.dim
	sc.ensure(dim)
	dst.sr, dst.dim, dst.ident = a.sr, dim, false
	dst.rowPtr = append(dst.rowPtr[:0], 0)
	dst.col = dst.col[:0]
	dst.val = dst.val[:0]
	maxLog := a.sr == MaxLog
	for i := 0; i < dim; i++ {
		for e := a.rowPtr[i]; e < a.rowPtr[i+1]; e++ {
			j := a.col[e]
			av := a.val[e]
			for f := b.rowPtr[j]; f < b.rowPtr[j+1]; f++ {
				c := b.col[f]
				var v float64
				if maxLog {
					v = av + b.val[f]
				} else {
					v = av * b.val[f]
				}
				if !sc.mark[c] {
					sc.mark[c] = true
					sc.touch = append(sc.touch, c)
					sc.acc[c] = v
				} else if maxLog {
					if v > sc.acc[c] {
						sc.acc[c] = v
					}
				} else {
					sc.acc[c] += v
				}
			}
		}
		for _, c := range sc.touch {
			dst.col = append(dst.col, c)
			dst.val = append(dst.val, sc.acc[c])
		}
		sc.reset()
		dst.rowPtr = append(dst.rowPtr, int32(len(dst.col)))
	}
}

func copyOp(dst, src *Op) {
	dst.sr, dst.dim, dst.ident = src.sr, src.dim, src.ident
	dst.rowPtr = append(dst.rowPtr[:0], src.rowPtr...)
	dst.col = append(dst.col[:0], src.col...)
	dst.val = append(dst.val[:0], src.val...)
}

// applySeed maps a seed frontier through the operator into out (which
// is reset first). Under MaxLog the combine is relax (max); under
// SumProb it accumulates. The identity operator copies the seed.
func (o *Op) applySeed(seed, out *frontier) {
	out.ensure(o.dim)
	out.reset()
	if o.ident {
		for _, c := range seed.list {
			out.add(c, seed.val[c])
		}
		return
	}
	maxLog := o.sr == MaxLog
	for _, i := range seed.list {
		base := seed.val[i]
		for e := o.rowPtr[i]; e < o.rowPtr[i+1]; e++ {
			c := o.col[e]
			if maxLog {
				out.relax(c, base+o.val[e])
			} else {
				out.add(c, base*o.val[e])
			}
		}
	}
}

// SeedFrontier fills f with the window-initial frontier: for every node
// x with initial[x] > 0 and every q' ∈ δ(start, x), cell x·|Q|+q' gets
// initial[x] (its log under MaxLog). Duplicate start transitions to the
// same successor state collapse, mirroring NewStepOp's edge dedup.
func seedFrontier(f *frontier, nt *NFATables, initial []float64, sr Semiring) {
	f.ensure(len(initial) * nt.States)
	f.reset()
	for x, p := range initial {
		if p == 0 {
			continue
		}
		var w float64
		if sr == MaxLog {
			w = math.Log(p)
		} else {
			w = p
		}
		lo, hi := nt.Edges(int(nt.Start), x)
		for e := lo; e < hi; e++ {
			cell := int32(x*nt.States + int(nt.Succ[e]))
			if !f.on[cell] {
				f.add(cell, w)
			}
		}
	}
}
