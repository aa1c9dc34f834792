package sproj

import (
	"context"
	"math"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/kpaths"
	"markovseq/internal/lawler"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// IndexedAnswer is an answer (o, i) of an indexed s-projector [B]↓A[E]:
// the matched substring o and the 1-based start index i of the occurrence.
type IndexedAnswer struct {
	Output []automata.Symbol
	Index  int
	// Conf is Pr(S →[B]↓A[E]→ (o, i)).
	Conf float64
}

// forwardB computes FB[i][x] = Pr(S[1..i] ∈ L(B) ∧ S_i = x) for 1 ≤ i ≤ n,
// plus epsB = whether ε ∈ L(B) (the i = 0 case). The poll (nil for the
// uncancellable path) is stepped once per position.
func (p *SProjector) forwardB(pl *kernel.Poll, m *markov.Sequence) (fb [][]float64, epsB bool, err error) {
	n := m.Len()
	nNodes := m.Nodes.Size()
	nB := p.B.NumStates
	// alpha[x][q] = Pr(S[1..i] ends at x with B in state q)
	alpha := make([][]float64, nNodes)
	for x := range alpha {
		alpha[x] = make([]float64, nB)
	}
	fb = make([][]float64, n+1)
	for x := 0; x < nNodes; x++ {
		if m.Initial[x] == 0 {
			continue
		}
		alpha[x][p.B.Delta[p.B.Start][x]] += m.Initial[x]
	}
	collect := func() []float64 {
		row := make([]float64, nNodes)
		for x := 0; x < nNodes; x++ {
			for q := 0; q < nB; q++ {
				if p.B.Accepting[q] {
					row[x] += alpha[x][q]
				}
			}
		}
		return row
	}
	fb[1] = collect()
	for i := 2; i <= n; i++ {
		if err := pl.Step(); err != nil {
			return nil, false, err
		}
		next := make([][]float64, nNodes)
		for x := range next {
			next[x] = make([]float64, nB)
		}
		tr := m.Trans[i-2]
		for x := 0; x < nNodes; x++ {
			for q := 0; q < nB; q++ {
				mass := alpha[x][q]
				if mass == 0 {
					continue
				}
				for y := 0; y < nNodes; y++ {
					if pr := tr[x][y]; pr > 0 {
						next[y][p.B.Delta[q][y]] += mass * pr
					}
				}
			}
		}
		alpha = next
		fb[i] = collect()
	}
	return fb, p.B.Accepting[p.B.Start], nil
}

// backwardE computes beta[j][x] = Pr(S[j+1..n] ∈ L(E) | S_j = x) for
// 1 ≤ j ≤ n (at j = n this is [ε ∈ L(E)]), together with
// whole = Pr(S[1..n] ∈ L(E)) for the i = 1, o = ε case. The poll (nil
// for the uncancellable path) is stepped once per position.
func (p *SProjector) backwardE(pl *kernel.Poll, m *markov.Sequence) (beta [][]float64, whole float64, err error) {
	n := m.Len()
	nNodes := m.Nodes.Size()
	nE := p.E.NumStates
	epsE := 0.0
	if p.E.Accepting[p.E.Start] {
		epsE = 1
	}
	// b[x][q] = Pr(S[j+1..n] read from E-state q accepts | S_j = x)
	b := make([][]float64, nNodes)
	for x := range b {
		b[x] = make([]float64, nE)
		for q := 0; q < nE; q++ {
			if p.E.Accepting[q] {
				b[x][q] = 1
			}
		}
	}
	beta = make([][]float64, n+1)
	beta[n] = make([]float64, nNodes)
	for x := range beta[n] {
		beta[n][x] = epsE
	}
	for j := n - 1; j >= 1; j-- {
		if err := pl.Step(); err != nil {
			return nil, 0, err
		}
		next := make([][]float64, nNodes)
		for x := range next {
			next[x] = make([]float64, nE)
		}
		tr := m.Trans[j-1]
		for x := 0; x < nNodes; x++ {
			for q := 0; q < nE; q++ {
				v := 0.0
				for y := 0; y < nNodes; y++ {
					if pr := tr[x][y]; pr > 0 {
						v += pr * b[y][p.E.Delta[q][y]]
					}
				}
				next[x][q] = v
			}
		}
		b = next
		beta[j] = make([]float64, nNodes)
		for x := 0; x < nNodes; x++ {
			beta[j][x] = b[x][p.E.Start]
		}
	}
	whole = 0
	for x := 0; x < nNodes; x++ {
		if m.Initial[x] > 0 {
			whole += m.Initial[x] * b[x][p.E.Delta[p.E.Start][x]]
		}
	}
	if n == 1 {
		// b was never advanced; recompute directly.
		whole = 0
		for x := 0; x < nNodes; x++ {
			if m.Initial[x] > 0 && p.E.Accepting[p.E.Delta[p.E.Start][x]] {
				whole += m.Initial[x]
			}
		}
	}
	return beta, whole, nil
}

// IndexedConfidence computes Pr(S →[B]↓A[E]→ (o, i)) in polynomial time,
// per Theorem 5.8: the indexed event fixes the occurrence position, so the
// probability factors into a prefix mass (forward DP through B), the
// middle path through o, and a suffix mass (backward DP through E).
func (p *SProjector) IndexedConfidence(m *markov.Sequence, o []automata.Symbol, i int) float64 {
	v, _ := p.indexedConfidence(nil, m, o, i)
	return v
}

// IndexedConfidenceCtx is IndexedConfidence with step-granularity
// cancellation of the forward/backward DPs.
func (p *SProjector) IndexedConfidenceCtx(ctx context.Context, m *markov.Sequence, o []automata.Symbol, i int) (float64, error) {
	return p.indexedConfidence(kernel.NewPoll(ctx), m, o, i)
}

func (p *SProjector) indexedConfidence(pl *kernel.Poll, m *markov.Sequence, o []automata.Symbol, i int) (float64, error) {
	if !p.A.Accepts(o) {
		return 0, nil
	}
	n := m.Len()
	lo := len(o)
	if i < 1 || i+lo-1 > n || (lo == 0 && i > n+1) {
		return 0, nil
	}
	fb, epsB, err := p.forwardB(pl, m)
	if err != nil {
		return 0, err
	}
	beta, whole, err := p.backwardE(pl, m)
	if err != nil {
		return 0, err
	}
	if lo == 0 {
		switch {
		case i == 1:
			if !epsB {
				return 0, nil
			}
			return whole, nil
		case i == n+1:
			total := 0.0
			if p.E.Accepting[p.E.Start] {
				for x := range fb[n] {
					total += fb[n][x]
				}
			}
			return total, nil
		default:
			total := 0.0
			for x := range fb[i-1] {
				total += fb[i-1][x] * beta[i-1][x]
			}
			return total, nil
		}
	}
	// Mass of reaching o[0] at position i with an accepted B-prefix.
	var start float64
	if i == 1 {
		if epsB {
			start = m.Initial[o[0]]
		}
	} else {
		tr := m.Trans[i-2]
		for x := range fb[i-1] {
			start += fb[i-1][x] * tr[x][o[0]]
		}
	}
	if start == 0 {
		return 0, nil
	}
	w := start
	for j := 0; j+1 < lo; j++ {
		w *= m.Trans[i+j-1][o[j]][o[j+1]]
		if w == 0 {
			return 0, nil
		}
	}
	return w * beta[i+lo-1][o[lo-1]], nil
}

// answerDAG is the Theorem 5.7 reduction: a DAG whose source→sink paths
// are in bijection with the indexed answers (o, i), such that the product
// of edge probabilities along the path equals conf(o, i). Edge weights are
// −log probabilities, so decreasing-confidence enumeration is
// increasing-weight path enumeration.
type answerDAG struct {
	g        *kpaths.Graph
	src, dst int
	// middle node id = 2 + ((j-1)·|Σ| + x)·|Q_A| + a
	nNodes  int
	nA      int
	seqLen  int
	pattern *automata.DFA
}

func (d *answerDAG) mid(j, x, a int) int {
	return 2 + ((j-1)*d.nNodes+x)*d.nA + a
}

// decode reconstructs (o, i) from a path.
func (d *answerDAG) decode(path kpaths.Path) ([]automata.Symbol, int) {
	if len(path.Edges) == 1 {
		// Direct source→sink edge: the label is the index of an ε answer.
		return nil, int(path.Edges[0].Label)
	}
	var o []automata.Symbol
	i := 0
	for k := 0; k < len(path.Edges)-1; k++ {
		node := path.Edges[k].To
		rel := node - 2
		a := rel % d.nA
		_ = a
		x := (rel / d.nA) % d.nNodes
		j := rel/(d.nA*d.nNodes) + 1
		if k == 0 {
			i = j
		}
		o = append(o, automata.Symbol(x))
	}
	return o, i
}

// buildDAG constructs the answer DAG for pattern automaton A' (usually
// p.A, or its product with an output constraint). The poll is stepped
// once per sequence position while laying edges (the construction is
// the dominant cost of TopIndexed, so cancellation must reach it).
func (p *SProjector) buildDAG(pl *kernel.Poll, m *markov.Sequence, pattern *automata.DFA) (*answerDAG, error) {
	n := m.Len()
	nNodes := m.Nodes.Size()
	nA := pattern.NumStates
	d := &answerDAG{
		nNodes:  nNodes,
		nA:      nA,
		seqLen:  n,
		pattern: pattern,
	}
	g := kpaths.NewGraph(2 + n*nNodes*nA)
	d.g = g
	d.src, d.dst = 0, 1

	fb, epsB, err := p.forwardB(pl, m)
	if err != nil {
		return nil, err
	}
	beta, whole, err := p.backwardE(pl, m)
	if err != nil {
		return nil, err
	}
	epsE := p.E.Accepting[p.E.Start]

	addEdge := func(from, to int, prob float64, label int32) {
		if prob <= 0 {
			return
		}
		w := -math.Log(prob)
		if w < 0 {
			// Accumulated rounding can push a probability a hair above 1;
			// clamp so the path weights stay non-negative.
			w = 0
		}
		g.AddEdge(from, to, w, label)
	}

	// Source edges: begin a (nonempty) match at position i on node x.
	for x := 0; x < nNodes; x++ {
		a := pattern.Delta[pattern.Start][x]
		if epsB {
			addEdge(d.src, d.mid(1, x, a), m.Initial[x], 0)
		}
		for i := 2; i <= n; i++ {
			if err := pl.Step(); err != nil {
				return nil, err
			}
			tr := m.Trans[i-2]
			start := 0.0
			for xp := 0; xp < nNodes; xp++ {
				start += fb[i-1][xp] * tr[xp][x]
			}
			addEdge(d.src, d.mid(i, x, a), start, 0)
		}
	}
	// Middle edges: continue the match.
	for j := 1; j < n; j++ {
		if err := pl.Step(); err != nil {
			return nil, err
		}
		tr := m.Trans[j-1]
		for x := 0; x < nNodes; x++ {
			for a := 0; a < nA; a++ {
				for y := 0; y < nNodes; y++ {
					if pr := tr[x][y]; pr > 0 {
						addEdge(d.mid(j, x, a), d.mid(j+1, y, pattern.Delta[a][y]), pr, 0)
					}
				}
			}
		}
	}
	// Sink edges: end the match after position j.
	for j := 1; j <= n; j++ {
		for x := 0; x < nNodes; x++ {
			for a := 0; a < nA; a++ {
				if !pattern.Accepting[a] {
					continue
				}
				addEdge(d.mid(j, x, a), d.dst, beta[j][x], 0)
			}
		}
	}
	// Direct edges for ε answers (o = ε at index i), when the pattern
	// accepts ε.
	if pattern.Accepting[pattern.Start] {
		if epsB {
			addEdge(d.src, d.dst, whole, 1)
		}
		for i := 2; i <= n; i++ {
			v := 0.0
			for x := 0; x < nNodes; x++ {
				v += fb[i-1][x] * beta[i-1][x]
			}
			addEdge(d.src, d.dst, v, int32(i))
		}
		if epsE {
			v := 0.0
			for x := 0; x < nNodes; x++ {
				v += fb[n][x]
			}
			addEdge(d.src, d.dst, v, int32(n+1))
		}
	}
	return d, nil
}

// IndexedEnumerator yields the answers of [B]↓A[E] over μ in exactly
// decreasing confidence with polynomial delay (Theorem 5.7).
type IndexedEnumerator struct {
	dag  *answerDAG
	iter *kpaths.Enumerator
}

// EnumerateIndexed prepares the decreasing-confidence enumeration of
// indexed answers.
func (p *SProjector) EnumerateIndexed(m *markov.Sequence) (*IndexedEnumerator, error) {
	return p.EnumerateIndexedCtx(context.Background(), m)
}

// EnumerateIndexedCtx is EnumerateIndexed with cancellation of the
// answer-DAG construction (the preparation cost, linear in n).
func (p *SProjector) EnumerateIndexedCtx(ctx context.Context, m *markov.Sequence) (*IndexedEnumerator, error) {
	dag, err := p.buildDAG(kernel.NewPoll(ctx), m, p.A)
	if err != nil {
		return nil, err
	}
	iter, err := dag.g.Enumerate(dag.src, dag.dst)
	if err != nil {
		return nil, err
	}
	return &IndexedEnumerator{dag: dag, iter: iter}, nil
}

// Next returns the next indexed answer in decreasing confidence, or
// ok=false at exhaustion.
func (e *IndexedEnumerator) Next() (IndexedAnswer, bool) {
	path, ok := e.iter.Next()
	if !ok {
		return IndexedAnswer{}, false
	}
	o, i := e.dag.decode(path)
	return IndexedAnswer{Output: o, Index: i, Conf: math.Exp(-path.Weight)}, true
}

// NextCtx is Next with a cancellation check before the next path is
// extracted; a non-nil error means no answer was consumed.
func (e *IndexedEnumerator) NextCtx(ctx context.Context) (IndexedAnswer, bool, error) {
	if err := ctx.Err(); err != nil {
		return IndexedAnswer{}, false, err
	}
	a, ok := e.Next()
	return a, ok, nil
}

// TopIndexed returns the indexed answer with maximal confidence whose
// output satisfies the constraint, or ok=false when none exists. Because
// the output of an s-projector is exactly the substring matched by the
// pattern, an output constraint composes into the pattern automaton.
func (p *SProjector) TopIndexed(m *markov.Sequence, c transducer.Constraint) (IndexedAnswer, bool) {
	a, ok, _ := p.TopIndexedCtx(context.Background(), m, c)
	return a, ok
}

// TopIndexedCtx is TopIndexed with cancellation of the constrained
// answer-DAG construction.
func (p *SProjector) TopIndexedCtx(ctx context.Context, m *markov.Sequence, c transducer.Constraint) (IndexedAnswer, bool, error) {
	dag, err := p.buildDAG(kernel.NewPoll(ctx), m, p.constrainedPattern(c))
	if err != nil {
		return IndexedAnswer{}, false, err
	}
	iter, err := dag.g.Enumerate(dag.src, dag.dst)
	if err != nil {
		return IndexedAnswer{}, false, nil
	}
	path, ok := iter.Next()
	if !ok {
		return IndexedAnswer{}, false, nil
	}
	o, i := dag.decode(path)
	return IndexedAnswer{Output: o, Index: i, Conf: math.Exp(-path.Weight)}, true, nil
}

// Imax computes I_max(o) = max_i conf(o, i), the scoring function of
// Section 5.2. It returns 0 when o is not an answer.
func (p *SProjector) Imax(m *markov.Sequence, o []automata.Symbol) float64 {
	best := 0.0
	top := m.Len() + 1
	if len(o) > 0 {
		top = m.Len() - len(o) + 1
	}
	for i := 1; i <= top; i++ {
		if v := p.IndexedConfidence(m, o, i); v > best {
			best = v
		}
	}
	return best
}

// StringAnswer is an (unindexed) s-projector answer scored by I_max.
type StringAnswer struct {
	Output []automata.Symbol
	// Imax is the maximal single-occurrence confidence of the answer; by
	// Proposition 5.9, Imax ≤ conf ≤ n·Imax.
	Imax float64
}

// ImaxEnumerator yields the (string) answers of an s-projector in
// decreasing I_max with polynomial delay (Lemma 5.10). By Proposition 5.9
// this order is an n-approximation of decreasing confidence (Theorem 5.2).
// It runs on the shared Lawler–Murty core (internal/lawler): child
// subproblems inherit the parent's I_max as an upper bound and are
// resolved (one constrained pattern-DAG shortest path, TopIndexed) only
// if they reach the front of the queue, instead of eagerly at push time.
type ImaxEnumerator struct {
	inner *lawler.Enumerator[StringAnswer]
}

// EnumerateImax prepares the decreasing-I_max enumeration of string
// answers (Lemma 5.10 / Theorem 5.2).
func (p *SProjector) EnumerateImax(m *markov.Sequence) *ImaxEnumerator {
	return &ImaxEnumerator{inner: lawler.New(lawler.Config[StringAnswer]{
		Root: transducer.Unconstrained(),
		Resolve: func(ctx context.Context, c transducer.Constraint, _ StringAnswer, _ bool) (StringAnswer, float64, bool, error) {
			top, ok, err := p.TopIndexedCtx(ctx, m, c)
			if err != nil || !ok {
				return StringAnswer{}, 0, false, err
			}
			return StringAnswer{Output: top.Output, Imax: top.Conf}, top.Conf, true, nil
		},
		Children: func(c transducer.Constraint, top StringAnswer) []transducer.Constraint {
			return c.Children(top.Output)
		},
	})}
}

// Next returns the next string answer in decreasing I_max, each exactly
// once, or ok=false at exhaustion.
func (e *ImaxEnumerator) Next() (StringAnswer, bool) {
	a, _, ok := e.inner.Next()
	return a, ok
}

// NextCtx is Next with cancellation: a non-nil error means no answer
// was consumed, and a later call with a live context resumes the
// decreasing-I_max order exactly where it stopped.
func (e *ImaxEnumerator) NextCtx(ctx context.Context) (StringAnswer, bool, error) {
	a, _, ok, err := e.inner.NextCtx(ctx)
	return a, ok, err
}
