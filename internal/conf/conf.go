// Package conf implements the confidence-computation algorithms of
// Kimelfeld & Ré (PODS 2010), Section 4.3: given a Markov sequence μ and a
// transducer A^ω, the confidence of an answer o is Pr(S →[A^ω]→ o), the
// probability that a random possible world of μ is transduced into o.
//
//   - Deterministic (Theorem 4.6): dynamic programming in
//     O(|o|·n·|Σ|²·|Q|²) time, with a faster k-uniform variant.
//   - Nondeterministic with k-uniform emission (Theorem 4.8): dynamic
//     programming interleaved with a lazy subset construction, in
//     O(n·k·|Σ|²·4^|Q|) time.
//   - BruteForce: a possible-worlds oracle, exponential in n, used to
//     validate the efficient algorithms and to demonstrate the hardness
//     results (Proposition 4.7, Theorem 4.9) empirically.
package conf

import (
	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// Det computes Pr(S →[A^ω]→ o) for a deterministic transducer, per
// Theorem 4.6. The transducer may be partial (missing transitions reject).
// It panics if the transducer is nondeterministic.
//
// Det runs the sparse frontier kernel (internal/kernel): the transducer
// is flattened into lookup tables, the sequence is viewed in CSR form,
// and only DP cells carrying nonzero mass are expanded. DetDense is the
// dense reference implementation it is validated against. Callers that
// evaluate many answers against one transducer should prepare the tables
// once (core.Prepared does).
func Det(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) float64 {
	return kernel.DetConfidence(kernel.NewDetTables(t), m.View(), o, nil)
}

// DetDense is the dense reference implementation of Det: a triple-nested
// DP over every (node, state, output-position) cell, allocating a fresh
// table per input position. It remains as the differential-testing and
// benchmarking baseline the tests and the A2 ablation compare against.
//
// The DP runs forward over input positions; a DP state (x, q, j) carries
// the probability mass of input prefixes that end at node x, drive A to
// state q, and have emitted exactly o[0:j].
func DetDense(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) float64 {
	if !t.IsDeterministic() {
		panic("conf: Det requires a deterministic transducer")
	}
	n := m.Len()
	nNodes := m.Nodes.Size()
	nStates := t.NumStates()
	lo := len(o)

	// cur[x][q][j] = mass of prefixes of length i ending at node x in state
	// q having emitted o[0:j].
	newTab := func() [][][]float64 {
		tab := make([][][]float64, nNodes)
		for x := range tab {
			tab[x] = make([][]float64, nStates)
			for q := range tab[x] {
				tab[x][q] = make([]float64, lo+1)
			}
		}
		return tab
	}
	cur := newTab()

	// emissionAdvance returns the new output position after emitting e at
	// output position j, or -1 if e does not match o there.
	advance := func(j int, e []automata.Symbol) int {
		if j+len(e) > lo {
			return -1
		}
		for k, sym := range e {
			if o[j+k] != sym {
				return -1
			}
		}
		return j + len(e)
	}

	// Position 1.
	for x := 0; x < nNodes; x++ {
		p := m.Initial[x]
		if p == 0 {
			continue
		}
		sym := automata.Symbol(x)
		succ := t.Succ(t.Start(), sym)
		if len(succ) == 0 {
			continue
		}
		q2 := succ[0]
		if j := advance(0, t.Emit(t.Start(), sym, q2)); j >= 0 {
			cur[x][q2][j] += p
		}
	}

	for i := 1; i < n; i++ {
		next := newTab()
		tr := m.Trans[i-1]
		for x := 0; x < nNodes; x++ {
			for q := 0; q < nStates; q++ {
				for j := 0; j <= lo; j++ {
					mass := cur[x][q][j]
					if mass == 0 {
						continue
					}
					for y := 0; y < nNodes; y++ {
						p := tr[x][y]
						if p == 0 {
							continue
						}
						sym := automata.Symbol(y)
						succ := t.Succ(q, sym)
						if len(succ) == 0 {
							continue
						}
						q2 := succ[0]
						if j2 := advance(j, t.Emit(q, sym, q2)); j2 >= 0 {
							next[y][q2][j2] += mass * p
						}
					}
				}
			}
		}
		cur = next
	}

	total := 0.0
	for x := 0; x < nNodes; x++ {
		for q := 0; q < nStates; q++ {
			if t.Accepting(q) {
				total += cur[x][q][lo]
			}
		}
	}
	return total
}

// DetUniform computes Pr(S →[A^ω]→ o) for a deterministic transducer with
// k-uniform emission, per the second bound of Theorem 4.6: after i input
// symbols exactly k·i output symbols have been emitted, so the output
// position need not be part of the DP state. It panics if the transducer
// is nondeterministic or not uniform. Like Det, it runs the sparse
// frontier kernel; DetUniformDense is the dense reference.
func DetUniform(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) float64 {
	if !t.IsDeterministic() {
		panic("conf: DetUniform requires a deterministic transducer")
	}
	k, ok := t.UniformK()
	if !ok {
		panic("conf: DetUniform requires uniform emission")
	}
	return kernel.DetUniformConfidence(kernel.NewDetTables(t), m.View(), k, o, nil)
}

// DetUniformDense is the dense reference implementation of DetUniform,
// kept as the differential-testing and benchmarking baseline.
func DetUniformDense(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) float64 {
	if !t.IsDeterministic() {
		panic("conf: DetUniform requires a deterministic transducer")
	}
	k, ok := t.UniformK()
	if !ok {
		panic("conf: DetUniform requires uniform emission")
	}
	n := m.Len()
	if len(o) != k*n {
		return 0
	}
	nNodes := m.Nodes.Size()
	nStates := t.NumStates()

	match := func(i int, e []automata.Symbol) bool {
		// Transition i (1-based input position) must emit o[k(i-1):ki].
		return automata.EqualStrings(e, o[k*(i-1):k*i])
	}

	cur := make([][]float64, nNodes)
	for x := range cur {
		cur[x] = make([]float64, nStates)
	}
	for x := 0; x < nNodes; x++ {
		p := m.Initial[x]
		if p == 0 {
			continue
		}
		sym := automata.Symbol(x)
		if succ := t.Succ(t.Start(), sym); len(succ) == 1 {
			if match(1, t.Emit(t.Start(), sym, succ[0])) {
				cur[x][succ[0]] += p
			}
		}
	}
	for i := 2; i <= n; i++ {
		next := make([][]float64, nNodes)
		for x := range next {
			next[x] = make([]float64, nStates)
		}
		tr := m.Trans[i-2]
		for x := 0; x < nNodes; x++ {
			for q := 0; q < nStates; q++ {
				mass := cur[x][q]
				if mass == 0 {
					continue
				}
				for y := 0; y < nNodes; y++ {
					p := tr[x][y]
					if p == 0 {
						continue
					}
					sym := automata.Symbol(y)
					if succ := t.Succ(q, sym); len(succ) == 1 {
						if match(i, t.Emit(q, sym, succ[0])) {
							next[y][succ[0]] += mass * p
						}
					}
				}
			}
		}
		cur = next
	}
	total := 0.0
	for x := 0; x < nNodes; x++ {
		for q := 0; q < nStates; q++ {
			if t.Accepting(q) {
				total += cur[x][q]
			}
		}
	}
	return total
}

// Uniform computes Pr(S →[A^ω]→ o) for a possibly nondeterministic
// transducer with k-uniform emission, per Theorem 4.8. The evidence set of
// o is the language of the "emission-filtered" NFA A_o, which keeps the
// transition (q, σ, q') at input position i iff ω(q, σ, q') = o[k(i-1):ki];
// Pr(S ∈ L(A_o)) is computed by a subset construction interleaved with
// the Markov dynamic program, in O(n·k·|Σ|²·4^|Q|) worst-case time.
//
// Three implementations back this entry point (ablation A2): the sparse
// bitmask frontier kernel (internal/kernel), which is the fastest up to
// 16 states; a dense bitmask powerset sweep (UniformDense, the reference
// implementation); and a lazy map-based interner (UniformLazy) that
// materializes only reachable subsets and therefore scales to larger
// automata whose reachable subset count stays small.
func Uniform(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) float64 {
	if t.NumStates() <= kernel.MaxUniformStates {
		k, ok := t.UniformK()
		if !ok {
			panic("conf: Uniform requires uniform emission")
		}
		return kernel.UniformConfidence(kernel.NewNFATables(t), m.View(), k, o, nil)
	}
	return UniformLazy(t, m, o)
}

// UniformLazy is the lazily-interning implementation of Theorem 4.8's
// subset dynamic program; see Uniform.
func UniformLazy(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) float64 {
	k, ok := t.UniformK()
	if !ok {
		panic("conf: Uniform requires uniform emission")
	}
	n := m.Len()
	if len(o) != k*n {
		return 0
	}
	nNodes := m.Nodes.Size()

	// Subset interner.
	subsetIndex := map[string]int{}
	var subsets [][]int
	intern := func(set []int) int {
		key := automata.StringKey(symbolsOf(set))
		if id, ok := subsetIndex[key]; ok {
			return id
		}
		subsetIndex[key] = len(subsets)
		subsets = append(subsets, set)
		return len(subsets) - 1
	}

	// filteredSucc returns the subset reachable from set by reading node
	// symbol y at input position i (1-based), respecting the emission
	// filter for o.
	filteredSucc := func(set []int, i int, y automata.Symbol) []int {
		want := o[k*(i-1) : k*i]
		out := map[int]bool{}
		for _, q := range set {
			for _, q2 := range t.Succ(q, y) {
				if automata.EqualStrings(t.Emit(q, y, q2), want) {
					out[q2] = true
				}
			}
		}
		return sortedKeys(out)
	}

	// mass[x][subsetID] for the current position.
	type cell map[int]float64 // subsetID -> probability
	cur := make([]cell, nNodes)
	for x := range cur {
		cur[x] = cell{}
	}
	for x := 0; x < nNodes; x++ {
		p := m.Initial[x]
		if p == 0 {
			continue
		}
		set := filteredSucc([]int{t.Start()}, 1, automata.Symbol(x))
		if len(set) == 0 {
			continue
		}
		cur[x][intern(set)] += p
	}
	for i := 2; i <= n; i++ {
		next := make([]cell, nNodes)
		for x := range next {
			next[x] = cell{}
		}
		tr := m.Trans[i-2]
		for x := 0; x < nNodes; x++ {
			for id, mass := range cur[x] {
				set := subsets[id]
				for y := 0; y < nNodes; y++ {
					p := tr[x][y]
					if p == 0 {
						continue
					}
					set2 := filteredSucc(set, i, automata.Symbol(y))
					if len(set2) == 0 {
						continue
					}
					next[y][intern(set2)] += mass * p
				}
			}
		}
		cur = next
	}
	total := 0.0
	for x := 0; x < nNodes; x++ {
		for id, mass := range cur[x] {
			for _, q := range subsets[id] {
				if t.Accepting(q) {
					total += mass
					break
				}
			}
		}
	}
	return total
}

// BruteForce computes Pr(S →[A^ω]→ o) by enumerating every possible world
// of μ and transducing it. Exponential in n; it is the validation oracle
// for the polynomial algorithms and the empirical witness of
// Proposition 4.7 / Theorem 4.9 hardness.
func BruteForce(t *transducer.Transducer, m *markov.Sequence, o []automata.Symbol) float64 {
	total := 0.0
	m.Enumerate(func(s []automata.Symbol, p float64) bool {
		for _, out := range t.Transduce(s, 0) {
			if automata.EqualStrings(out, o) {
				total += p
				break
			}
		}
		return true
	})
	return total
}

// AcceptanceProb computes Pr(S ∈ L(A)) for an epsilon-free NFA A over the
// nodes of μ, by determinizing lazily and running the Markov DP. This is
// the nonzero-answer test primitive: an answer exists iff the acceptance
// probability of the (constrained) transducer's automaton is positive.
func AcceptanceProb(a *automata.NFA, m *markov.Sequence) float64 {
	n := m.Len()
	nNodes := m.Nodes.Size()
	subsetIndex := map[string]int{}
	var subsets [][]int
	intern := func(set []int) int {
		key := automata.StringKey(symbolsOf(set))
		if id, ok := subsetIndex[key]; ok {
			return id
		}
		subsetIndex[key] = len(subsets)
		subsets = append(subsets, set)
		return len(subsets) - 1
	}
	succ := func(set []int, y automata.Symbol) []int {
		out := map[int]bool{}
		for _, q := range set {
			for _, q2 := range a.Succ(q, y) {
				out[q2] = true
			}
		}
		return sortedKeys(out)
	}
	type cell map[int]float64
	cur := make([]cell, nNodes)
	for x := range cur {
		cur[x] = cell{}
	}
	for x := 0; x < nNodes; x++ {
		if m.Initial[x] == 0 {
			continue
		}
		set := succ([]int{a.Start}, automata.Symbol(x))
		if len(set) == 0 {
			continue
		}
		cur[x][intern(set)] += m.Initial[x]
	}
	for i := 2; i <= n; i++ {
		next := make([]cell, nNodes)
		for x := range next {
			next[x] = cell{}
		}
		tr := m.Trans[i-2]
		for x := 0; x < nNodes; x++ {
			for id, mass := range cur[x] {
				for y := 0; y < nNodes; y++ {
					p := tr[x][y]
					if p == 0 {
						continue
					}
					set2 := succ(subsets[id], automata.Symbol(y))
					if len(set2) == 0 {
						continue
					}
					next[y][intern(set2)] += mass * p
				}
			}
		}
		cur = next
	}
	total := 0.0
	for x := 0; x < nNodes; x++ {
		for id, mass := range cur[x] {
			for _, q := range subsets[id] {
				if a.Accepting[q] {
					total += mass
					break
				}
			}
		}
	}
	return total
}

func symbolsOf(set []int) []automata.Symbol {
	out := make([]automata.Symbol, len(set))
	for i, v := range set {
		out[i] = automata.Symbol(v)
	}
	return out
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	// insertion sort: subsets are small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
