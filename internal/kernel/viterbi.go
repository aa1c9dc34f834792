package kernel

import (
	"math"
	"sync"

	"markovseq/internal/automata"
)

// ViterbiScratch holds the reusable buffers of the Viterbi kernel. Not
// safe for concurrent use; pass nil to draw from an internal pool.
type ViterbiScratch struct {
	cur, next frontier
	back      []int32
}

var viterbiScratchPool = sync.Pool{New: func() any { return new(ViterbiScratch) }}

// ViterbiRun finds the maximum-probability accepting run of the
// transducer over the sequence (the E_max top-answer primitive behind
// Theorem 4.3), returning the evidence node string, the visited states,
// and the log probability; ok is false when no accepting run over a
// positive-probability world exists.
//
// Cells are (node x, state q) flattened to x·|Q|+q; scores live in a
// double-buffered frontier (only reached cells are relaxed), edge log
// probabilities come precomputed from the CSR view, and backpointers are
// one flat int32 array (packed predecessor cell, -1 at the root).
func ViterbiRun(nt *NFATables, v *SeqView, sc *ViterbiScratch) (nodes []automata.Symbol, states []int, logp float64, ok bool) {
	if sc == nil {
		sc = viterbiScratchPool.Get().(*ViterbiScratch)
		defer viterbiScratchPool.Put(sc)
	}
	size := v.K * nt.States
	sc.cur.ensure(size)
	sc.next.ensure(size)
	sc.cur.reset()
	sc.next.reset()
	if cap(sc.back) < v.N*size {
		sc.back = make([]int32, v.N*size)
	}
	sc.back = sc.back[:v.N*size]

	for ii, x := range v.InitIdx {
		lp := math.Log(v.InitVal[ii])
		lo, hi := nt.Edges(int(nt.Start), int(x))
		for e := lo; e < hi; e++ {
			cell := int32(int(x)*nt.States + int(nt.Succ[e]))
			if sc.cur.relax(cell, lp) {
				sc.back[cell] = -1
			}
		}
	}
	for i := 1; i < v.N; i++ {
		st := &v.Steps[i-1]
		backRow := sc.back[i*size : (i+1)*size]
		sc.cur.sortList()
		for _, idx := range sc.cur.list {
			base := sc.cur.val[idx]
			x := int(idx) / nt.States
			q := int(idx) % nt.States
			for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
				y := int(st.Col[e])
				lp := base + st.LogVal[e]
				lo, hi := nt.Edges(q, y)
				for t := lo; t < hi; t++ {
					cell := int32(y*nt.States + int(nt.Succ[t]))
					if sc.next.relax(cell, lp) {
						backRow[cell] = idx
					}
				}
			}
		}
		sc.cur, sc.next = sc.next, sc.cur
		sc.next.reset()
	}

	best, bestCell := math.Inf(-1), int32(-1)
	for _, idx := range sc.cur.list {
		if !nt.Accept[int(idx)%nt.States] {
			continue
		}
		if s := sc.cur.val[idx]; s > best || (s == best && idx < bestCell) {
			best, bestCell = s, idx
		}
	}
	sc.cur.reset()
	if bestCell < 0 {
		return nil, nil, math.Inf(-1), false
	}
	nodes = make([]automata.Symbol, v.N)
	states = make([]int, v.N)
	cell := bestCell
	for i := v.N - 1; i >= 0; i-- {
		nodes[i] = automata.Symbol(int(cell) / nt.States)
		states[i] = int(cell) % nt.States
		cell = sc.back[i*size+int(cell)]
	}
	return nodes, states, best, true
}
