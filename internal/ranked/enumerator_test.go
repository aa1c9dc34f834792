package ranked

import (
	"math"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// pruned and exhaustive are NewEnumerator with its length rule
// overridden, for tests that compare the two sweeps on instances of any
// length: pruned resolves against potentials whatever the sequence's
// length (unless it is extendable), exhaustive never does.
func pruned(t *transducer.Transducer, m *markov.Sequence, opts ...Option) *Enumerator {
	e := NewEnumerator(t, m, opts...)
	e.prune = !e.extendable
	return e
}

func exhaustive(t *transducer.Transducer, m *markov.Sequence, opts ...Option) *Enumerator {
	e := NewEnumerator(t, m, opts...)
	e.prune = false
	return e
}

// drainAnswers pulls up to k answers (k ≤ 0 means all).
func drainAnswers(next func() (Answer, bool), k int) []Answer {
	var out []Answer
	for k <= 0 || len(out) < k {
		a, ok := next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// TestEnumeratorMatchesReference differentially tests the
// constraint-incremental enumerator against the product-materializing
// reference loop (legacy_test.go): same answer set, same per-rank scores.
// When the score sequence is strictly decreasing the orders must match
// exactly (on ties the two heaps may legitimately break differently).
func TestEnumeratorMatchesReference(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		m := markov.Random(in, 2+rng.Intn(4), 0.6, rng)
		tr := randomNDTransducer(in, out, 1+rng.Intn(3), rng)
		inc := NewEnumerator(tr, m)
		ref := NewReferenceEnumerator(tr, m)
		got := drainAnswers(inc.Next, -1)
		want := drainAnswers(ref.Next, -1)
		if len(got) != len(want) {
			t.Fatalf("trial %d: incremental %d answers, reference %d", trial, len(got), len(want))
		}
		strict := true
		for i := range want {
			if math.Abs(got[i].LogEmax-want[i].LogEmax) > 1e-9 {
				t.Fatalf("trial %d rank %d: score %v vs reference %v", trial, i, got[i].LogEmax, want[i].LogEmax)
			}
			if i > 0 && want[i].LogEmax >= want[i-1].LogEmax-1e-12 {
				strict = false
			}
		}
		gotSet, wantSet := map[string]bool{}, map[string]bool{}
		for i := range want {
			gotSet[automata.StringKey(got[i].Output)] = true
			wantSet[automata.StringKey(want[i].Output)] = true
		}
		for k := range wantSet {
			if !gotSet[k] {
				t.Fatalf("trial %d: reference answer missing from incremental enumeration", trial)
			}
		}
		if strict {
			for i := range want {
				if !automata.EqualStrings(got[i].Output, want[i].Output) {
					t.Fatalf("trial %d rank %d: output %v vs reference %v",
						trial, i, got[i].Output, want[i].Output)
				}
			}
		}
	}
}

// assertSameAnswerSequence requires byte-identical outputs and exactly
// equal scores, rank by rank.
func assertSameAnswerSequence(t *testing.T, label string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d answers, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !automata.EqualStrings(got[i].Output, want[i].Output) {
			t.Fatalf("%s rank %d: output %v, want %v", label, i, got[i].Output, want[i].Output)
		}
		if got[i].LogEmax != want[i].LogEmax {
			t.Fatalf("%s rank %d: score %v, want %v (must be bit-identical)",
				label, i, got[i].LogEmax, want[i].LogEmax)
		}
	}
}

// TestOneShotMatchesEnumerator checks the one-shot per-answer functions
// against the enumerator: Emax of every enumerated answer is its
// enumerated score bit for bit, and BestEvidence returns a witness of
// the same probability.
func TestOneShotMatchesEnumerator(t *testing.T) {
	tr, m := textgenRankedWorkload(t)
	answers := drainAnswers(NewEnumerator(tr, m).Next, 25)
	if len(answers) == 0 {
		t.Fatal("workload has no answers")
	}
	for _, a := range answers {
		if got := Emax(tr, m, a.Output); got != a.LogEmax {
			t.Fatalf("Emax(%v) = %v, enumerator said %v", a.Output, got, a.LogEmax)
		}
		evid, lp, ok := BestEvidence(tr, m, a.Output)
		if !ok {
			t.Fatalf("BestEvidence(%v) found nothing", a.Output)
		}
		if lp != a.LogEmax {
			t.Fatalf("BestEvidence(%v) probability %v, want %v", a.Output, lp, a.LogEmax)
		}
		if got := m.LogProb(evid); math.Abs(got-lp) > 1e-9 {
			t.Fatalf("evidence of %v has logprob %v, claimed %v", a.Output, got, lp)
		}
	}
}
