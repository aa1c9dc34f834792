package ranked

import (
	"container/heap"
	"math"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// This file holds the test-side references of the ranked kernels. The
// product-materializing resolution path is the differential reference
// (and the baseline of the delay benchmarks): each subproblem
// materializes the tracker×transducer product with t.Constrain(c),
// rebuilds flat tables, and re-runs the Viterbi DP from position 0. The
// constraint-incremental path (evaluator.go +
// internal/kernel/constrained.go) must agree with it on scores, and the
// enumerators must agree on answer sets. viterbiRunDense is the dense
// reference of the sparse Viterbi kernel.

// TopEmaxProduct is the reference implementation of TopEmax via explicit
// product materialization.
func TopEmaxProduct(t *transducer.Transducer, m *markov.Sequence, c transducer.Constraint) (o []automata.Symbol, logE float64, ok bool) {
	ct := t.Constrain(c)
	nt := kernel.NewNFATables(ct)
	nodes, states, lp, ok := kernel.ViterbiRun(nt, m.View(), nil)
	if !ok {
		return nil, lp, false
	}
	return nt.EmitRun(nodes, states), lp, true
}

// ReferenceEnumerator is the pre-incremental Lawler–Murty loop: lazy
// Murty resolution, but every resolution pays the full product-and-
// rebuild cost. Kept as the differential reference and benchmark
// baseline for the enumerator in ranked.go.
type ReferenceEnumerator struct {
	t     *transducer.Transducer
	m     *markov.Sequence
	queue refQueue
}

type refItem struct {
	constraint transducer.Constraint
	resolved   bool
	top        []automata.Symbol
	logE       float64
}

type refQueue []*refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].logE > q[j].logE }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// NewReferenceEnumerator prepares the reference decreasing-E_max
// enumeration of the answers of t over m.
func NewReferenceEnumerator(t *transducer.Transducer, m *markov.Sequence) *ReferenceEnumerator {
	e := &ReferenceEnumerator{t: t, m: m}
	if top, logE, ok := TopEmaxProduct(t, m, transducer.Unconstrained()); ok {
		heap.Push(&e.queue, &refItem{
			constraint: transducer.Unconstrained(),
			resolved:   true,
			top:        top,
			logE:       logE,
		})
	}
	return e
}

// Next returns the next answer in decreasing E_max, or ok=false when all
// answers have been enumerated.
func (e *ReferenceEnumerator) Next() (Answer, bool) {
	for len(e.queue) > 0 {
		it := heap.Pop(&e.queue).(*refItem)
		if !it.resolved {
			top, logE, ok := TopEmaxProduct(e.t, e.m, it.constraint)
			if !ok {
				continue // empty subproblem
			}
			it.resolved, it.top, it.logE = true, top, logE
			heap.Push(&e.queue, it)
			continue
		}
		for _, child := range it.constraint.Children(it.top) {
			heap.Push(&e.queue, &refItem{constraint: child, logE: it.logE})
		}
		return Answer{Output: it.top, LogEmax: it.logE}, true
	}
	return Answer{}, false
}

// viterbiRun finds the maximum-probability accepting run of the transducer
// over μ, returning the evidence node string, the visited states, and the
// log probability. ok is false when no accepting run over a
// positive-probability world exists. It runs the sparse frontier kernel:
// flat transducer tables, CSR transitions with precomputed logs, and
// double-buffered score buffers (viterbiRunDense is the reference
// implementation the kernel is differentially tested against).
func viterbiRun(t *transducer.Transducer, m *markov.Sequence) (nodes []automata.Symbol, states []int, logp float64, ok bool) {
	return kernel.ViterbiRun(kernel.NewNFATables(t), m.View(), nil)
}

// viterbiRunDense is the dense reference implementation of viterbiRun,
// scanning every (node, state) cell per position.
func viterbiRunDense(t *transducer.Transducer, m *markov.Sequence) (nodes []automata.Symbol, states []int, logp float64, ok bool) {
	n := m.Len()
	nNodes := m.Nodes.Size()
	nStates := t.NumStates()
	negInf := math.Inf(-1)

	type bp struct{ x, q int }
	// score[x][q] = max log prob of s[1..i] ending at node x in state q.
	score := make([][]float64, nNodes)
	back := make([][][]bp, n) // back[i][x][q]
	for i := range back {
		back[i] = make([][]bp, nNodes)
		for x := range back[i] {
			back[i][x] = make([]bp, nStates)
		}
	}
	for x := range score {
		score[x] = make([]float64, nStates)
		for q := range score[x] {
			score[x][q] = negInf
		}
	}
	for x := 0; x < nNodes; x++ {
		p := m.Initial[x]
		if p == 0 {
			continue
		}
		for _, q2 := range t.Succ(t.Start(), automata.Symbol(x)) {
			lp := math.Log(p)
			if lp > score[x][q2] {
				score[x][q2] = lp
				back[0][x][q2] = bp{-1, t.Start()}
			}
		}
	}
	for i := 1; i < n; i++ {
		next := make([][]float64, nNodes)
		for x := range next {
			next[x] = make([]float64, nStates)
			for q := range next[x] {
				next[x][q] = negInf
			}
		}
		tr := m.Trans[i-1]
		for x := 0; x < nNodes; x++ {
			for q := 0; q < nStates; q++ {
				base := score[x][q]
				if base == negInf {
					continue
				}
				for y := 0; y < nNodes; y++ {
					p := tr[x][y]
					if p == 0 {
						continue
					}
					lp := base + math.Log(p)
					for _, q2 := range t.Succ(q, automata.Symbol(y)) {
						if lp > next[y][q2] {
							next[y][q2] = lp
							back[i][y][q2] = bp{x, q}
						}
					}
				}
			}
		}
		score = next
	}
	bestX, bestQ, best := -1, -1, negInf
	for x := 0; x < nNodes; x++ {
		for q := 0; q < nStates; q++ {
			if t.Accepting(q) && score[x][q] > best {
				best, bestX, bestQ = score[x][q], x, q
			}
		}
	}
	if bestX < 0 {
		return nil, nil, negInf, false
	}
	nodes = make([]automata.Symbol, n)
	states = make([]int, n)
	x, q := bestX, bestQ
	for i := n - 1; i >= 0; i-- {
		nodes[i] = automata.Symbol(x)
		states[i] = q
		prev := back[i][x][q]
		x, q = prev.x, prev.q
	}
	return nodes, states, best, true
}
