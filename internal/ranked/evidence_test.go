package ranked

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/hardness"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/paperex"
	"markovseq/internal/transducer"
)

// TestEvidencesRunningExample: the evidences of answer 12 are exactly the
// strings s, t, u of Table 1, in decreasing probability.
func TestEvidencesRunningExample(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	m := paperex.Figure1(nodes)
	tr := paperex.Figure2(nodes, outs)
	e, err := Evidences(tr, m, outs.MustParseString("1 2"))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		world string
		p     float64
	}{
		{"r1a la la r1a r2a", 0.3969},
		{"r1a r1a la r1a r2a", 0.0049},
		{"la r1b r1b r1a r2a", 0.002},
	}
	for i, w := range want {
		world, lp, ok := e.Next()
		if !ok {
			t.Fatalf("evidence %d missing", i)
		}
		if nodes.FormatString(world) != w.world {
			t.Fatalf("evidence %d = %q, want %q", i, nodes.FormatString(world), w.world)
		}
		if math.Abs(math.Exp(lp)-w.p) > 1e-9 {
			t.Fatalf("evidence %d probability %v, want %v", i, math.Exp(lp), w.p)
		}
	}
	if _, _, ok := e.Next(); ok {
		t.Fatal("only three evidences of 12 exist")
	}
}

// TestEvidencesAgainstBruteForce on random instances (including
// nondeterministic transducers, where duplicate paths must be filtered).
func TestEvidencesAgainstBruteForce(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(600 + trial)))
		m := markov.Random(in, 2+rng.Intn(3), 0.6, rng)
		tr := randomNDTransducer(in, out, 1+rng.Intn(3), rng)
		// Pick an answer.
		answers := bruteEmax(tr, m)
		if len(answers) == 0 {
			continue
		}
		var key string
		for k := range answers {
			key = k
			break
		}
		o := parseKey(key)
		// Brute-force evidences.
		type ev struct {
			key string
			p   float64
		}
		var want []ev
		m.Enumerate(func(s []automata.Symbol, p float64) bool {
			for _, cand := range tr.Transduce(s, 0) {
				if automata.EqualStrings(cand, o) {
					want = append(want, ev{automata.StringKey(s), p})
					break
				}
			}
			return true
		})
		sort.Slice(want, func(i, j int) bool { return want[i].p > want[j].p })
		e, err := Evidences(tr, m, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			world, lp, ok := e.Next()
			if !ok {
				t.Fatalf("trial %d: evidence %d missing (want %d total)", trial, i, len(want))
			}
			if math.Abs(math.Exp(lp)-want[i].p) > 1e-9 {
				t.Fatalf("trial %d: evidence %d probability %v, want %v",
					trial, i, math.Exp(lp), want[i].p)
			}
			if got := m.Prob(world); math.Abs(got-math.Exp(lp)) > 1e-9 {
				t.Fatalf("trial %d: reported logp inconsistent with world", trial)
			}
		}
		if _, _, ok := e.Next(); ok {
			t.Fatalf("trial %d: spurious extra evidence", trial)
		}
	}
}

// TestBestEvidenceMatchesBruteForce checks the evidence of every answer
// against possible-worlds enumeration, as BestEvidence returns it and as
// the nodes and states of kernel.ConstrainedViterbi, gated by the
// potentials and ungated: the world transduces into the answer, the
// states are an accepting run over it that emits the answer, and the
// world's probability is the largest of any world transduced into the
// answer. The instances are random small ones with nondeterministic
// transducers, and the flat Max-3-DNF reduction, where every world has
// the same probability, so the walk-back picks the kept predecessor
// among exactly tied cells.
func TestBestEvidenceMatchesBruteForce(t *testing.T) {
	// check returns the number of answers it checked.
	check := func(label string, tr *transducer.Transducer, m *markov.Sequence) int {
		t.Helper()
		nt := kernel.NewNFATables(tr)
		v := m.View()
		bd := kernel.NewBounds(nt, v)
		want := bruteEmax(tr, m)
		for key, p := range want {
			o := parseKey(key)
			// near reports whether q is p within 1e-12 relative.
			near := func(q float64) bool { return math.Abs(q-p) <= 1e-12*p }
			world, lp, ok := BestEvidence(tr, m, o)
			if !ok || !transducesInto(tr, world, o) || !near(m.Prob(world)) || !near(math.Exp(lp)) {
				t.Fatalf("%s: BestEvidence(%v) = %v (ok %v, p %v, claimed %v), want a world into it of p %v",
					label, o, world, ok, m.Prob(world), math.Exp(lp), p)
			}
			c := transducer.Constraint{Prefix: o, Mode: transducer.ExactOnly}
			for _, b := range []*kernel.Bounds{nil, bd} {
				_, nodes, states, lp, ok := kernel.ConstrainedViterbi(nt, v, c, b, nil)
				if !ok || !acceptingRun(nt, nodes, states) || !automata.EqualStrings(nt.EmitRun(nodes, states), o) ||
					!transducesInto(tr, nodes, o) || !near(m.Prob(nodes)) || !near(math.Exp(lp)) {
					t.Fatalf("%s gated %v: ConstrainedViterbi(%v) = nodes %v states %v (ok %v, p %v, claimed %v), want an accepting run emitting it of p %v",
						label, b != nil, o, nodes, states, ok, m.Prob(nodes), math.Exp(lp), p)
				}
			}
		}
		return len(want)
	}
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	random, flat := 0, 0
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(94000 + trial)))
		m := markov.Random(in, 2+rng.Intn(5), 0.6, rng)
		random += check(fmt.Sprintf("trial %d", trial), randomNDTransducer(in, out, 1+rng.Intn(3), rng), m)
	}
	for seed := int64(1); seed <= 4; seed++ {
		hi := hardness.NewMealyInstance(hardness.RandomMax3DNF(4, 3, rand.New(rand.NewSource(seed))))
		flat += check(fmt.Sprintf("max3dnf seed %d amplified", seed), hi.T, hi.Amplify(2))
		hi = hardness.NewMealyInstance(hardness.RandomMax3DNF(6, 5, rand.New(rand.NewSource(seed))))
		flat += check(fmt.Sprintf("max3dnf seed %d", seed), hi.T, hi.M)
	}
	if random == 0 || flat == 0 {
		t.Fatalf("answers checked: %d on random instances, %d on Max-3-DNF; want both > 0", random, flat)
	}
	t.Logf("answers checked: %d on random instances, %d on Max-3-DNF", random, flat)
}

// transducesInto reports whether tr transduces world into o.
func transducesInto(tr *transducer.Transducer, world, o []automata.Symbol) bool {
	for _, got := range tr.Transduce(world, 0) {
		if automata.EqualStrings(got, o) {
			return true
		}
	}
	return false
}

// acceptingRun reports whether states is an accepting run of nt over
// nodes: states[i] is a successor of the state before nodes[i], and the
// last state accepts.
func acceptingRun(nt *kernel.NFATables, nodes []automata.Symbol, states []int) bool {
	if len(nodes) == 0 || len(states) != len(nodes) {
		return false
	}
	q := int(nt.Start)
	for i, y := range nodes {
		lo, hi := nt.Edges(q, int(y))
		ok := false
		for e := lo; e < hi && !ok; e++ {
			ok = int(nt.Succ[e]) == states[i]
		}
		if !ok {
			return false
		}
		q = states[i]
	}
	return nt.Accept[q]
}

func parseKey(key string) []automata.Symbol {
	return automata.ParseKey(key)
}
