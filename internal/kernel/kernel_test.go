// Differential tests for the sparse frontier kernels: on randomized
// workloads, every kernel must agree with the dense reference DP and —
// for the deterministic paths — with the big.Rat possible-worlds oracle
// of internal/exact, to within 1e-12 relative error. The trials are
// small enough to run under `make race`.
package kernel_test

import (
	"math"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/conf"
	"markovseq/internal/exact"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// relErr is |a−b| / max(|a|, |b|, 1) — absolute near zero, relative
// elsewhere, matching the acceptance criterion of the differential
// oracle (1e-12).
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

const tol = 1e-12

func randomDetTransducer(in, out *automata.Alphabet, nStates int, rng *rand.Rand) *transducer.Transducer {
	tr := transducer.New(in, out, nStates, 0)
	for q := 0; q < nStates; q++ {
		tr.SetAccepting(q, rng.Intn(2) == 0)
		for _, s := range in.Symbols() {
			if rng.Intn(5) == 0 {
				continue // partial: reject on this symbol
			}
			q2 := rng.Intn(nStates)
			var e []automata.Symbol
			for l := rng.Intn(3); l > 0; l-- {
				e = append(e, automata.Symbol(rng.Intn(out.Size())))
			}
			tr.AddTransition(q, s, q2, e)
		}
	}
	return tr
}

func randomUniformDetTransducer(in, out *automata.Alphabet, nStates, k int, rng *rand.Rand) *transducer.Transducer {
	tr := transducer.New(in, out, nStates, 0)
	for q := 0; q < nStates; q++ {
		tr.SetAccepting(q, rng.Intn(2) == 0)
		for _, s := range in.Symbols() {
			if rng.Intn(5) == 0 {
				continue
			}
			e := make([]automata.Symbol, k)
			for i := range e {
				e[i] = automata.Symbol(rng.Intn(out.Size()))
			}
			tr.AddTransition(q, s, rng.Intn(nStates), e)
		}
	}
	return tr
}

// randomNFATransducer draws a random nondeterministic transducer whose
// emissions are all exactly k symbols long, as the k-uniform kernels
// require.
func randomNFATransducer(in, out *automata.Alphabet, nStates, k int, rng *rand.Rand) *transducer.Transducer {
	return randomNFA(in, out, nStates, func() int { return k }, rng)
}

// randomVarNFATransducer draws a random nondeterministic transducer with
// 0–2-symbol emissions, ε included. Variable lengths put several z
// values in one checkpoint layer, so derived and from-scratch layers
// order their cells differently and resume windows span several z
// buckets.
func randomVarNFATransducer(in, out *automata.Alphabet, nStates int, rng *rand.Rand) *transducer.Transducer {
	return randomNFA(in, out, nStates, func() int { return rng.Intn(3) }, rng)
}

func randomNFA(in, out *automata.Alphabet, nStates int, emitLen func() int, rng *rand.Rand) *transducer.Transducer {
	tr := transducer.New(in, out, nStates, 0)
	for q := 0; q < nStates; q++ {
		tr.SetAccepting(q, rng.Intn(2) == 0)
		for _, s := range in.Symbols() {
			for q2 := 0; q2 < nStates; q2++ {
				if rng.Intn(3) != 0 {
					continue
				}
				e := make([]automata.Symbol, emitLen())
				for i := range e {
					e[i] = automata.Symbol(rng.Intn(out.Size()))
				}
				tr.AddTransition(q, s, q2, e)
			}
		}
	}
	return tr
}

// answers returns the brute-force answer set of tr over m.
func answers(tr *transducer.Transducer, m *markov.Sequence) map[string][]automata.Symbol {
	set := map[string][]automata.Symbol{}
	m.Enumerate(func(s []automata.Symbol, p float64) bool {
		for _, o := range tr.Transduce(s, 0) {
			set[automata.StringKey(o)] = append([]automata.Symbol(nil), o...)
		}
		return true
	})
	return set
}

// TestDetKernelDifferential is the three-way differential property test
// of the deterministic kernel: sparse kernel vs dense reference vs the
// big.Rat exact oracle, on random transducers and sequences.
func TestDetKernelDifferential(t *testing.T) {
	in := automata.MustAlphabet("a", "b", "c")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		m := markov.Random(in, 2+rng.Intn(4), 0.6, rng)
		tr := randomDetTransducer(in, out, 1+rng.Intn(3), rng)
		dt := kernel.NewDetTables(tr)
		v := m.View()
		es := exact.FromFloat(m)
		for _, o := range answers(tr, m) {
			sparse := kernel.DetConfidence(dt, v, o, nil)
			dense := conf.DetDense(tr, m, o)
			if relErr(sparse, dense) > tol {
				t.Fatalf("trial %d: sparse %v vs dense %v on %v", trial, sparse, dense, o)
			}
			oracle, _ := exact.DetConfidence(tr, es, o).Float64()
			if relErr(sparse, oracle) > tol {
				t.Fatalf("trial %d: sparse %v vs exact %v on %v", trial, sparse, oracle, o)
			}
		}
		long := make([]automata.Symbol, 3*m.Len()+1)
		if got := kernel.DetConfidence(dt, v, long, nil); got != 0 {
			t.Fatalf("trial %d: impossible output got %v", trial, got)
		}
	}
}

// TestDetUniformKernelDifferential checks the k-uniform deterministic
// fast path against the dense reference and the exact oracle.
func TestDetUniformKernelDifferential(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(8000 + trial)))
		k := rng.Intn(3)
		m := markov.Random(in, 2+rng.Intn(4), 0.7, rng)
		tr := randomUniformDetTransducer(in, out, 2, k, rng)
		if _, ok := tr.UniformK(); !ok {
			t.Fatalf("trial %d: transducer not uniform", trial)
		}
		dt := kernel.NewDetTables(tr)
		v := m.View()
		es := exact.FromFloat(m)
		for _, o := range answers(tr, m) {
			sparse := kernel.DetUniformConfidence(dt, v, k, o, nil)
			dense := conf.DetUniformDense(tr, m, o)
			if relErr(sparse, dense) > tol {
				t.Fatalf("trial %d: sparse %v vs dense %v on %v", trial, sparse, dense, o)
			}
			oracle, _ := exact.DetConfidence(tr, es, o).Float64()
			if relErr(sparse, oracle) > tol {
				t.Fatalf("trial %d: sparse %v vs exact %v on %v", trial, sparse, oracle, o)
			}
		}
	}
}

// TestUniformKernelDifferential checks the subset-DP kernel against the
// lazy and dense references and possible-worlds brute force.
func TestUniformKernelDifferential(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		k := 1 + rng.Intn(2)
		m := markov.Random(in, 2+rng.Intn(3), 0.7, rng)
		tr := randomNFATransducer(in, out, 1+rng.Intn(3), k, rng)
		nt := kernel.NewNFATables(tr)
		v := m.View()
		for _, o := range answers(tr, m) {
			sparse := kernel.UniformConfidence(nt, v, k, o, nil)
			lazy := conf.UniformLazy(tr, m, o)
			brute := conf.BruteForce(tr, m, o)
			if relErr(sparse, lazy) > tol {
				t.Fatalf("trial %d: sparse %v vs lazy %v on %v", trial, sparse, lazy, o)
			}
			if relErr(sparse, brute) > 1e-9 {
				t.Fatalf("trial %d: sparse %v vs brute %v on %v", trial, sparse, brute, o)
			}
		}
		if got := kernel.UniformConfidence(nt, v, k, make([]automata.Symbol, k*m.Len()+1), nil); got != 0 {
			t.Fatalf("trial %d: wrong-length output got %v", trial, got)
		}
	}
}

// TestExactOracleAgreement pins the 1e-12 acceptance criterion on a
// larger deterministic instance where float rounding has room to
// accumulate: a 30-position sequence over 3 nodes.
func TestExactOracleAgreement(t *testing.T) {
	in := automata.MustAlphabet("a", "b", "c")
	out := automata.MustAlphabet("x", "y")
	rng := rand.New(rand.NewSource(424242))
	m := markov.Random(in, 30, 0.8, rng)
	tr := randomUniformDetTransducer(in, out, 3, 1, rng)
	// Take an answer from a sampled world so confidence is nonzero.
	var o []automata.Symbol
	for i := 0; i < 50 && o == nil; i++ {
		s := m.Sample(rng)
		if outs := tr.Transduce(s, 0); len(outs) > 0 {
			o = outs[0]
		}
	}
	if o == nil {
		t.Skip("no answer found in sampled worlds")
	}
	sparse := kernel.DetConfidence(kernel.NewDetTables(tr), m.View(), o, nil)
	oracle := exact.DetConfidence(tr, exact.FromFloat(m), o)
	of, _ := oracle.Float64()
	if relErr(sparse, of) > tol {
		t.Fatalf("sparse %v vs exact %v (rel err %v)", sparse, of, relErr(sparse, of))
	}
	if sparse > 0 && oracle.Sign() <= 0 {
		t.Fatalf("oracle sign mismatch: %v vs %v", sparse, oracle)
	}
}

// TestDetConfidenceAllocFree verifies the 0 allocs/op acceptance
// criterion: after one warm-up call, the per-evaluation step allocates
// nothing when the caller supplies its own scratch.
func TestDetConfidenceAllocFree(t *testing.T) {
	in := automata.MustAlphabet("a", "b", "c")
	out := automata.MustAlphabet("x", "y")
	rng := rand.New(rand.NewSource(5))
	m := markov.Random(in, 12, 0.7, rng)
	tr := randomUniformDetTransducer(in, out, 3, 1, rng)
	dt := kernel.NewDetTables(tr)
	v := m.View()
	var o []automata.Symbol
	for i := 0; i < 50 && o == nil; i++ {
		if outs := tr.Transduce(m.Sample(rng), 0); len(outs) > 0 {
			o = outs[0]
		}
	}
	if o == nil {
		t.Skip("no answer found in sampled worlds")
	}
	sc := new(kernel.DetScratch)
	kernel.DetConfidence(dt, v, o, sc) // warm the buffers
	if allocs := testing.AllocsPerRun(100, func() {
		kernel.DetConfidence(dt, v, o, sc)
	}); allocs != 0 {
		t.Fatalf("DetConfidence allocates %v per run with warm scratch", allocs)
	}
	kernel.DetUniformConfidence(dt, v, 1, o, sc)
	if allocs := testing.AllocsPerRun(100, func() {
		kernel.DetUniformConfidence(dt, v, 1, o, sc)
	}); allocs != 0 {
		t.Fatalf("DetUniformConfidence allocates %v per run with warm scratch", allocs)
	}
}

// TestUniformConfidenceAllocFree is the subset-DP analogue.
func TestUniformConfidenceAllocFree(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	rng := rand.New(rand.NewSource(6))
	m := markov.Random(in, 10, 0.8, rng)
	tr := randomNFATransducer(in, out, 3, 1, rng)
	nt := kernel.NewNFATables(tr)
	v := m.View()
	var o []automata.Symbol
	for i := 0; i < 50 && o == nil; i++ {
		if outs := tr.Transduce(m.Sample(rng), 0); len(outs) > 0 {
			o = outs[0]
		}
	}
	if o == nil {
		t.Skip("no answer found in sampled worlds")
	}
	sc := new(kernel.UniformScratch)
	kernel.UniformConfidence(nt, v, 1, o, sc) // warm the buffers
	if allocs := testing.AllocsPerRun(100, func() {
		kernel.UniformConfidence(nt, v, 1, o, sc)
	}); allocs != 0 {
		t.Fatalf("UniformConfidence allocates %v per run with warm scratch", allocs)
	}
}

// TestSeqViewSparsity checks the CSR view drops structural zeros and
// does not alias the sequence's dense matrices.
func TestSeqViewSparsity(t *testing.T) {
	ab := automata.MustAlphabet("a", "b", "c")
	m := markov.New(ab, 3)
	m.SetInitial(0, 1)
	m.SetTrans(1, 0, 1, 0.5)
	m.SetTrans(1, 0, 2, 0.5)
	m.SetTrans(2, 1, 1, 1)
	m.SetTrans(2, 2, 2, 1)
	v := m.View()
	if v.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", v.NNZ())
	}
	if len(v.InitIdx) != 1 || v.InitIdx[0] != 0 || v.InitVal[0] != 1 {
		t.Fatalf("initial row compiled wrong: %v %v", v.InitIdx, v.InitVal)
	}
	// Mutating the view's arrays must not write through to m.
	v.Steps[0].Val[0] = 0.25
	if m.Trans[0][0][1] != 0.5 {
		t.Fatal("SeqView aliases the dense transition matrices")
	}
}
