// Package markov implements the data model of Kimelfeld & Ré (PODS 2010),
// Section 3.1: a Markov sequence μ[n] over a finite set Σ of state nodes,
// comprising an initial-state distribution μ₀→ and a transition function
// μᵢ→ for each 1 ≤ i < n. A Markov sequence defines a probability space
// over Σⁿ by Equation (1):
//
//	p(s) = μ₀→(s₁) · ∏ᵢ μᵢ→(sᵢ, sᵢ₊₁)
//
// The package provides validation, string probability, sampling,
// forward/backward marginals, and the sequence combinators (concatenation,
// restriction) used by the paper's amplification arguments.
package markov

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
)

// Sequence is a Markov sequence μ[n]. Probabilities are float64; every row
// of every transition matrix, and the initial distribution, sums to 1 (up
// to Tolerance) for a valid sequence.
type Sequence struct {
	// Nodes is the state-node set Σ_μ.
	Nodes *automata.Alphabet
	// Initial is μ₀→: Initial[s] = Pr(S₁ = s). Length |Σ|.
	Initial []float64
	// Trans[i] is μ_{i+1}→ as a row-stochastic |Σ|×|Σ| matrix:
	// Trans[i][s][t] = Pr(S_{i+2} = t | S_{i+1} = s). Length n-1.
	Trans [][][]float64

	// view caches the sparse CSR view built by View. SetInitial and
	// SetTrans invalidate it; direct writes to Initial/Trans after a
	// View call do not (see View).
	view atomic.Pointer[kernel.SeqView]

	// extended flips when Extended donates this sequence's spare Trans
	// capacity to its successor; a second Extended call then copies, so
	// divergent extensions never share a backing array (see Extended).
	extended atomic.Bool
}

// Tolerance is the additive slack allowed when checking that probability
// rows sum to one.
const Tolerance = 1e-9

// New returns a Markov sequence of length n over the given nodes with all
// probabilities zero; callers fill Initial and Trans before Validate.
func New(nodes *automata.Alphabet, n int) *Sequence {
	if n < 1 {
		panic(fmt.Sprintf("markov: sequence length %d < 1", n))
	}
	k := nodes.Size()
	seq := &Sequence{
		Nodes:   nodes,
		Initial: make([]float64, k),
		Trans:   make([][][]float64, n-1),
	}
	for i := range seq.Trans {
		m := make([][]float64, k)
		for s := range m {
			m[s] = make([]float64, k)
		}
		seq.Trans[i] = m
	}
	return seq
}

// Len returns n, the length of the Markov sequence (the number of random
// variables S₁…Sₙ).
func (m *Sequence) Len() int { return len(m.Trans) + 1 }

// SetInitial sets μ₀→(s) = p.
func (m *Sequence) SetInitial(s automata.Symbol, p float64) {
	m.Initial[s] = p
	m.view.Store(nil)
}

// SetTrans sets μᵢ→(s, t) = p for 1 ≤ i < n (i is the paper's 1-based
// transition index: the transition from Sᵢ to Sᵢ₊₁).
func (m *Sequence) SetTrans(i int, s, t automata.Symbol, p float64) {
	if i < 1 || i > len(m.Trans) {
		panic(fmt.Sprintf("markov: transition index %d out of range [1,%d]", i, len(m.Trans)))
	}
	m.Trans[i-1][s][t] = p
	m.view.Store(nil)
}

// View returns the sequence's sparse CSR view (internal/kernel), built on
// first use and cached: the hot DP kernels (confidence, Viterbi, forward
// passes) iterate only the nonzero transitions through it. The cache is
// invalidated by SetInitial/SetTrans; callers that write Initial or Trans
// directly must do so before the first View call (every constructor in
// this repository does). Safe for concurrent use.
func (m *Sequence) View() *kernel.SeqView {
	if v := m.view.Load(); v != nil {
		return v
	}
	v := kernel.NewSeqView(m.Initial, m.Trans)
	m.view.Store(v)
	return v
}

// TransAt returns the transition matrix μᵢ→ (1-based, as in the paper).
func (m *Sequence) TransAt(i int) [][]float64 { return m.Trans[i-1] }

// Validate checks that the initial distribution and every transition row
// are probability distributions.
func (m *Sequence) Validate() error {
	if got, want := len(m.Initial), m.Nodes.Size(); got != want {
		return fmt.Errorf("markov: initial distribution has %d entries, want %d", got, want)
	}
	if err := checkRow(m.Initial); err != nil {
		return fmt.Errorf("markov: initial distribution %w", err)
	}
	for i, mat := range m.Trans {
		if len(mat) != m.Nodes.Size() {
			return fmt.Errorf("markov: transition %d has %d rows, want %d", i+1, len(mat), m.Nodes.Size())
		}
		for s, row := range mat {
			if len(row) != m.Nodes.Size() {
				return fmt.Errorf("markov: transition %d row %s has %d entries, want %d",
					i+1, m.Nodes.Name(automata.Symbol(s)), len(row), m.Nodes.Size())
			}
			if err := checkRow(row); err != nil {
				return fmt.Errorf("markov: transition %d row %s %w", i+1, m.Nodes.Name(automata.Symbol(s)), err)
			}
		}
	}
	return nil
}

// checkRow checks that row is a probability distribution. Its error
// names no row, so a valid row costs no formatting; callers wrap it with
// the row's label.
func checkRow(row []float64) error {
	sum := 0.0
	for _, p := range row {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("has invalid probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > Tolerance {
		return fmt.Errorf("sums to %v, want 1", sum)
	}
	return nil
}

// Prob returns p(s) per Equation (1). Strings whose length differs from the
// sequence length have probability zero by definition.
func (m *Sequence) Prob(s []automata.Symbol) float64 {
	if len(s) != m.Len() {
		return 0
	}
	p := m.Initial[s[0]]
	for i := 1; i < len(s); i++ {
		if p == 0 {
			return 0
		}
		p *= m.Trans[i-1][s[i-1]][s[i]]
	}
	return p
}

// LogProb returns log p(s), or -Inf for impossible strings. Ranked
// enumeration works in log space to avoid underflow on long sequences.
func (m *Sequence) LogProb(s []automata.Symbol) float64 {
	return math.Log(m.Prob(s))
}

// Sample draws a random string from the sequence's probability space.
func (m *Sequence) Sample(rng *rand.Rand) []automata.Symbol {
	out := make([]automata.Symbol, m.Len())
	out[0] = sampleRow(m.Initial, rng)
	for i := 1; i < m.Len(); i++ {
		out[i] = sampleRow(m.Trans[i-1][out[i-1]], rng)
	}
	return out
}

func sampleRow(row []float64, rng *rand.Rand) automata.Symbol {
	x := rng.Float64()
	acc := 0.0
	last := automata.Symbol(0)
	for s, p := range row {
		if p == 0 {
			continue
		}
		last = automata.Symbol(s)
		acc += p
		if x < acc {
			return last
		}
	}
	// Rounding: return the last node with positive mass.
	return last
}

// Forward returns the marginals α, where α[i][s] = Pr(S_{i+1} = s) for
// 0 ≤ i < n (0-based position). The pass runs over the sparse CSR view,
// touching only nonzero transitions.
func (m *Sequence) Forward() [][]float64 {
	alpha, _ := m.forward(nil)
	return alpha
}

// ForwardCtx is Forward with step-granularity cancellation: the context
// is polled every few positions and the pass aborts with ctx.Err() as
// soon as it fires, returning nil marginals.
func (m *Sequence) ForwardCtx(ctx context.Context) ([][]float64, error) {
	return m.forward(kernel.NewPoll(ctx))
}

func (m *Sequence) forward(p *kernel.Poll) ([][]float64, error) {
	v := m.View()
	alpha := make([][]float64, v.N)
	row0 := make([]float64, v.K)
	for ii, x := range v.InitIdx {
		row0[x] = v.InitVal[ii]
	}
	alpha[0] = row0
	for i := 1; i < v.N; i++ {
		if err := p.Step(); err != nil {
			return nil, err
		}
		row := make([]float64, v.K)
		st := &v.Steps[i-1]
		prev := alpha[i-1]
		for s := 0; s < v.K; s++ {
			ps := prev[s]
			if ps == 0 {
				continue
			}
			for e := st.RowPtr[s]; e < st.RowPtr[s+1]; e++ {
				row[st.Col[e]] += ps * st.Val[e]
			}
		}
		alpha[i] = row
	}
	return alpha, nil
}

// Backward returns the suffix masses β, where β[i][s] is the expected
// final weight of running the chain from S_{i+1} = s to the end:
// β[n-1] = final and β[i][s] = Σ_t μ_{i+1}→(s, t)·β[i+1][t]. A nil final
// is treated as all-ones (every β entry is then 1 for a valid sequence —
// the stochastic sanity identity); non-trivial final weights give the
// acceptance-mass backward pass used for pruning and windowed scoring.
// Sparse like Forward.
func (m *Sequence) Backward(final []float64) [][]float64 {
	beta, _ := m.backward(nil, final)
	return beta
}

// BackwardCtx is Backward with step-granularity cancellation (see
// ForwardCtx).
func (m *Sequence) BackwardCtx(ctx context.Context, final []float64) ([][]float64, error) {
	return m.backward(kernel.NewPoll(ctx), final)
}

func (m *Sequence) backward(p *kernel.Poll, final []float64) ([][]float64, error) {
	v := m.View()
	beta := make([][]float64, v.N)
	last := make([]float64, v.K)
	if final == nil {
		for s := range last {
			last[s] = 1
		}
	} else {
		if len(final) != v.K {
			panic(fmt.Sprintf("markov: Backward final weights have %d entries, want %d", len(final), v.K))
		}
		copy(last, final)
	}
	beta[v.N-1] = last
	for i := v.N - 2; i >= 0; i-- {
		if err := p.Step(); err != nil {
			return nil, err
		}
		row := make([]float64, v.K)
		st := &v.Steps[i]
		next := beta[i+1]
		for s := 0; s < v.K; s++ {
			acc := 0.0
			for e := st.RowPtr[s]; e < st.RowPtr[s+1]; e++ {
				acc += st.Val[e] * next[st.Col[e]]
			}
			row[s] = acc
		}
		beta[i] = row
	}
	return beta, nil
}

// Support reports, for each position, which nodes have nonzero marginal
// probability. Enumeration algorithms use it to prune impossible branches.
// It propagates boolean reachability over the sparse view — no float
// arithmetic (so no underflow on very long sequences) and no marginal
// tables allocated.
func (m *Sequence) Support() [][]bool {
	v := m.View()
	out := make([][]bool, v.N)
	row0 := make([]bool, v.K)
	for _, x := range v.InitIdx {
		row0[x] = true
	}
	out[0] = row0
	for i := 1; i < v.N; i++ {
		row := make([]bool, v.K)
		st := &v.Steps[i-1]
		prev := out[i-1]
		for s := 0; s < v.K; s++ {
			if !prev[s] {
				continue
			}
			for e := st.RowPtr[s]; e < st.RowPtr[s+1]; e++ {
				row[st.Col[e]] = true
			}
		}
		out[i] = row
	}
	return out
}

// Concat returns the Markov sequence obtained by running m1 and then m2
// independently: the transition from m1's last variable to m2's first
// ignores m1's state and draws from m2's initial distribution. This is the
// amplification tool of Theorems 4.4/4.5 (concatenating a polynomial number
// of copies of a Markov sequence).
func Concat(m1, m2 *Sequence) *Sequence {
	if m1.Nodes != m2.Nodes {
		panic("markov: concatenation of sequences over different node sets")
	}
	k := m1.Nodes.Size()
	out := New(m1.Nodes, m1.Len()+m2.Len())
	copy(out.Initial, m1.Initial)
	for i, mat := range m1.Trans {
		copyMatrix(out.Trans[i], mat)
	}
	// Bridging transition: every row is m2's initial distribution.
	bridge := out.Trans[m1.Len()-1]
	for s := 0; s < k; s++ {
		copy(bridge[s], m2.Initial)
	}
	for i, mat := range m2.Trans {
		copyMatrix(out.Trans[m1.Len()+i], mat)
	}
	return out
}

// Power returns m concatenated with itself c times (c ≥ 1).
func Power(m *Sequence, c int) *Sequence {
	if c < 1 {
		panic("markov: Power requires c >= 1")
	}
	out := m
	for i := 1; i < c; i++ {
		out = Concat(out, m)
	}
	return out
}

func copyMatrix(dst, src [][]float64) {
	for s := range src {
		copy(dst[s], src[s])
	}
}

// Homogeneous returns a Markov sequence of length n in which every
// transition uses the same row-stochastic matrix. It is the natural way to
// express a stationary chain (e.g. an HMM-derived prior) in this model.
func Homogeneous(nodes *automata.Alphabet, n int, initial []float64, trans [][]float64) *Sequence {
	m := New(nodes, n)
	copy(m.Initial, initial)
	for i := range m.Trans {
		copyMatrix(m.Trans[i], trans)
	}
	return m
}

// Uniform returns a Markov sequence of length n in which every string of
// Σⁿ is equally likely. Proposition 4.7's reduction from counting
// |L(A) ∩ Σⁿ| uses exactly this sequence.
func Uniform(nodes *automata.Alphabet, n int) *Sequence {
	k := nodes.Size()
	initial := make([]float64, k)
	trans := make([][]float64, k)
	for s := 0; s < k; s++ {
		initial[s] = 1 / float64(k)
		row := make([]float64, k)
		for t := 0; t < k; t++ {
			row[t] = 1 / float64(k)
		}
		trans[s] = row
	}
	return Homogeneous(nodes, n, initial, trans)
}

// Random returns a valid random Markov sequence of length n with the given
// sparsity: each transition row has roughly density·|Σ| nonzero entries
// (at least one). It is the workload generator for the scaling benchmarks.
func Random(nodes *automata.Alphabet, n int, density float64, rng *rand.Rand) *Sequence {
	m := New(nodes, n)
	fillRandomRow(m.Initial, density, rng)
	for i := range m.Trans {
		for s := range m.Trans[i] {
			fillRandomRow(m.Trans[i][s], density, rng)
		}
	}
	return m
}

func fillRandomRow(row []float64, density float64, rng *rand.Rand) {
	sum := 0.0
	for t := range row {
		if rng.Float64() < density {
			row[t] = rng.Float64()
			sum += row[t]
		} else {
			row[t] = 0
		}
	}
	if sum == 0 {
		t := rng.Intn(len(row))
		row[t] = 1
		sum = 1
	}
	for t := range row {
		row[t] /= sum
	}
}

// Enumerate calls fn for every string with nonzero probability, together
// with its probability, in depth-first order. It is exponential in n and
// exists as the brute-force oracle for tests and ratio experiments; fn may
// return false to stop early.
func (m *Sequence) Enumerate(fn func(s []automata.Symbol, p float64) bool) {
	n := m.Len()
	buf := make([]automata.Symbol, n)
	var rec func(i int, p float64) bool
	rec = func(i int, p float64) bool {
		if i == n {
			return fn(buf, p)
		}
		var row []float64
		if i == 0 {
			row = m.Initial
		} else {
			row = m.Trans[i-1][buf[i-1]]
		}
		for t, q := range row {
			if q == 0 {
				continue
			}
			buf[i] = automata.Symbol(t)
			if !rec(i+1, p*q) {
				return false
			}
		}
		return true
	}
	rec(0, 1)
}

// Window returns the marginal Markov sequence of positions i..j (1-based,
// inclusive): the initial distribution is the forward marginal at i and
// the transitions are those of μ. Because μ is Markov, the window is
// exactly the distribution of S_i..S_j — the primitive behind sliding-
// window stream evaluation. For many windows of one sequence, use
// Windower, which computes the forward marginals once.
func (m *Sequence) Window(i, j int) *Sequence {
	return windowWith(m, m.Forward(), i, j)
}

// Windower extracts window marginals of one sequence with the forward
// marginals precomputed once: each Window call costs only the per-window
// copy, not the O(n·|Σ|²) forward pass. A Windower is safe for
// concurrent readers; Extend and EvictBefore (append.go and below) are
// its writer operations and must be serialized against them by the
// caller.
//
// On an append-only stream the marginal table would otherwise grow one
// row per event forever; the table is therefore stored as a resident
// suffix (rows, offset by base) indexed by absolute position, and
// EvictBefore reclaims rows older than every window a caught-up cursor
// can still open. A Windower implements kernel.Marginals.
type Windower struct {
	m    *Sequence
	rows [][]float64 // rows[d] is the marginal of position base+d+1
	base int         // absolute index of rows[0]
}

// Windower returns a window extractor with the forward marginals of m
// precomputed.
func (m *Sequence) Windower() *Windower {
	return &Windower{m: m, rows: m.Forward()}
}

// Window returns the marginal sequence of positions i..j (1-based,
// inclusive), exactly as Sequence.Window. The window-initial marginal
// must still be resident (not reclaimed by EvictBefore).
func (w *Windower) Window(i, j int) *Sequence {
	return windowWithRow(w.m, w.Row(i-1), i, j)
}

// Row returns the forward marginal of position i+1 (the distribution of
// S_{i+1}); read-only. It panics when row i was reclaimed by
// EvictBefore.
func (w *Windower) Row(i int) []float64 {
	if i < w.base {
		panic(fmt.Sprintf("markov: marginal row %d evicted (resident from %d)", i, w.base))
	}
	return w.rows[i-w.base]
}

// Len returns the number of stream positions covered (independent of
// eviction).
func (w *Windower) Len() int { return w.base + len(w.rows) }

// Resident returns the number of marginal rows currently held — the
// quantity EvictBefore keeps bounded on a caught-up stream.
func (w *Windower) Resident() int { return len(w.rows) }

// EvictBefore reclaims every marginal row with absolute index < i; later
// Row calls below i panic. The final row is always kept (Extend seeds
// the appended marginals from it), so i is clamped to Len()-1.
// EvictBefore is a writer operation, like Extend.
//
// It costs O(evicted rows): the evicted slots are cleared and the table
// is resliced past them, so resident rows keep their slots and a
// cursor that evicts one row per window moves no rows at all. Extend's
// append reallocates the table with only the resident rows once the
// resliced capacity runs out.
func (w *Windower) EvictBefore(i int) {
	if max := w.Len() - 1; i > max {
		i = max
	}
	d := i - w.base
	if d <= 0 {
		return
	}
	clear(w.rows[:d])
	w.rows = w.rows[d:]
	w.base = i
}

// SharedWindow returns the same marginal sequence as Window but without
// copying: the transition matrices alias the parent sequence and the
// compiled sparse view is sliced from the parent's, so extracting a
// window costs O(|Σ|) (the initial-distribution copy) instead of
// O(w·|Σ|²) — the primitive behind amortized sliding-window sweeps. The
// result is numerically bit-identical to Window's deep copy (shared
// steps preserve value bits; the DP kernels iterate them identically).
//
// The returned sequence is a read-only overlay: mutating its Trans
// matrices (or calling SetTrans) would corrupt the parent. Validate,
// binding, and all evaluation paths are safe.
func (w *Windower) SharedWindow(i, j int) *Sequence {
	m := w.m
	if i < 1 || j > m.Len() || i > j {
		panic(fmt.Sprintf("markov: window [%d,%d] out of range [1,%d]", i, j, m.Len()))
	}
	out := &Sequence{
		Nodes:   m.Nodes,
		Initial: append([]float64(nil), w.Row(i-1)...),
		Trans:   m.Trans[i-1 : j-1 : j-1],
	}
	out.view.Store(m.View().Slice(i, j, out.Initial))
	return out
}

func windowWith(m *Sequence, alpha [][]float64, i, j int) *Sequence {
	if i < 1 || j > m.Len() || i > j {
		panic(fmt.Sprintf("markov: window [%d,%d] out of range [1,%d]", i, j, m.Len()))
	}
	return windowWithRow(m, alpha[i-1], i, j)
}

func windowWithRow(m *Sequence, initial []float64, i, j int) *Sequence {
	if i < 1 || j > m.Len() || i > j {
		panic(fmt.Sprintf("markov: window [%d,%d] out of range [1,%d]", i, j, m.Len()))
	}
	out := New(m.Nodes, j-i+1)
	copy(out.Initial, initial)
	for p := i; p < j; p++ {
		copyMatrix(out.Trans[p-i], m.Trans[p-1])
	}
	return out
}
