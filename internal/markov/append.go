package markov

import (
	"fmt"

	"markovseq/internal/automata"
)

// Extended returns the Markov sequence obtained by appending the given
// transition matrices to m: the result has length m.Len()+len(mats),
// shares m's node set and initial distribution, and validates each new
// matrix (row-stochastic |Σ|×|Σ|) before anything is built. The receiver
// is not mutated and every previously returned snapshot stays valid, so
// concurrent readers of m never observe the append.
//
// The cost is O(len(mats)·|Σ|²): the transition prefix is shared, and if
// m's sparse view has been built it is extended in place-of-work rather
// than recompiled (kernel.SeqView.Extend), so the extended view is
// bit-identical to compiling the full sequence from scratch. The first
// Extended call on a sequence may donate its spare Trans capacity to the
// successor — append-only single-writer chains therefore grow in
// amortized O(1) slice work; a second Extended of the same snapshot
// copies the prefix, so divergent extensions never share a backing array.
//
// The matrices are deep-copied; callers may reuse them after the call.
func (m *Sequence) Extended(mats [][][]float64) (*Sequence, error) {
	if len(mats) == 0 {
		return m, nil
	}
	k := m.Nodes.Size()
	n := m.Len()
	copies := make([][][]float64, len(mats))
	for j, mat := range mats {
		if len(mat) != k {
			return nil, fmt.Errorf("markov: appended transition %d has %d rows, want %d", n+j, len(mat), k)
		}
		cp := make([][]float64, k)
		for s, row := range mat {
			if len(row) != k {
				return nil, fmt.Errorf("markov: appended transition %d row %s has %d entries, want %d",
					n+j, m.Nodes.Name(automata.Symbol(s)), len(row), k)
			}
			if err := checkRow(row); err != nil {
				return nil, fmt.Errorf("markov: appended transition %d row %s %w", n+j, m.Nodes.Name(automata.Symbol(s)), err)
			}
			cp[s] = append([]float64(nil), row...)
		}
		copies[j] = cp
	}

	trans := m.Trans
	if !m.extended.CompareAndSwap(false, true) {
		// This snapshot was already extended once: copy the prefix so the
		// two successor chains cannot write into the same backing array.
		trans = append(make([][][]float64, 0, len(m.Trans)+len(copies)), m.Trans...)
	}
	trans = append(trans, copies...)

	out := &Sequence{Nodes: m.Nodes, Initial: m.Initial, Trans: trans}
	if v := m.view.Load(); v != nil {
		out.view.Store(v.Extend(copies))
	}
	return out, nil
}

// Extend grows the windower to cover m2, an extension of its current
// sequence (as produced by Sequence.Extended): only the marginals of the
// appended positions are computed — O(appended·|Σ|²) instead of the full
// O(n·|Σ|²) forward pass — using the same sparse inner loop as Forward,
// so the grown marginal table is bit-identical to a fresh Windower over
// m2. Extend is a writer operation of a Windower (like EvictBefore): it
// must not race with Window/SharedWindow/Row calls on the same Windower
// (previously returned windows and marginal rows stay valid).
func (w *Windower) Extend(m2 *Sequence) {
	v := m2.View()
	old := w.Len()
	if v.N < old || v.K != w.m.Nodes.Size() {
		panic(fmt.Sprintf("markov: Windower.Extend sequence (n=%d, k=%d) does not extend the current one (n=%d)", v.N, v.K, old))
	}
	for i := old; i < v.N; i++ {
		row := make([]float64, v.K)
		st := &v.Steps[i-1]
		prev := w.Row(i - 1)
		for s := 0; s < v.K; s++ {
			ps := prev[s]
			if ps == 0 {
				continue
			}
			for e := st.RowPtr[s]; e < st.RowPtr[s+1]; e++ {
				row[st.Col[e]] += ps * st.Val[e]
			}
		}
		w.rows = append(w.rows, row)
	}
	w.m = m2
}
