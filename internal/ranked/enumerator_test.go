package ranked

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

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

// TestEvaluatorMatchesOneShot checks that the evaluator's amortized
// per-answer calls (satellite of the checkpoint cache) agree with the
// one-shot functions: Emax scores match exactly and BestEvidence
// returns a witness of the same probability.
func TestEvaluatorMatchesOneShot(t *testing.T) {
	tr, m := textgenRankedWorkload(t)
	ev := NewEvaluator(tr, m)
	answers := drainAnswers(ev.Enumerate().Next, 25)
	if len(answers) == 0 {
		t.Fatal("workload has no answers")
	}
	for _, a := range answers {
		if got := ev.Emax(a.Output); got != a.LogEmax {
			t.Fatalf("Emax(%v) = %v, enumerator said %v", a.Output, got, a.LogEmax)
		}
		if oneShot := Emax(tr, m, a.Output); oneShot != a.LogEmax {
			t.Fatalf("one-shot Emax(%v) = %v, enumerator said %v", a.Output, oneShot, a.LogEmax)
		}
		evid, lp, ok := ev.BestEvidence(a.Output)
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

// evaluatorCall is one public Evaluator call and what it returned; the
// float fields compare by bits.
type evaluatorCall struct {
	kind string
	in   []automata.Symbol
	out  []automata.Symbol
	logE float64
	ok   bool
}

func (c evaluatorCall) run(ev *Evaluator) evaluatorCall {
	switch c.kind {
	case "TopEmax":
		c.out, c.logE, c.ok = ev.TopEmax(transducer.Constraint{Prefix: c.in, Mode: transducer.ExtensionsOnly})
	case "Emax":
		c.logE = ev.Emax(c.in)
		c.ok = !math.IsInf(c.logE, -1)
	case "BestEvidence":
		c.out, c.logE, c.ok = ev.BestEvidence(c.in)
	}
	return c
}

func (c evaluatorCall) same(d evaluatorCall) bool {
	return c.ok == d.ok && math.Float64bits(c.logE) == math.Float64bits(d.logE) && slices.Equal(c.out, d.out)
}

// TestEvaluatorConcurrentCalls: TopEmax, Emax and BestEvidence made on
// one Evaluator from several goroutines at once return bit-identical
// results to the same calls made one after another, in every serving
// mode. The goroutines start at different offsets of one call list, so
// they miss on the same alignments at once: under -race this exercises
// the checkpoint cache's mutex, duplicate misses resolved by put and the
// lazy handles' single-flight materialization, in extendable mode on
// the ungated handles the append path builds.
func TestEvaluatorConcurrentCalls(t *testing.T) {
	testutil.CheckLeaks(t)
	tr, m := rfidRankedWorkload(t, 60)
	var calls []evaluatorCall
	for _, a := range drainAnswers(NewEnumerator(tr, m).Next, 12) {
		calls = append(calls,
			evaluatorCall{kind: "TopEmax", in: a.Output[:len(a.Output)/2]},
			evaluatorCall{kind: "Emax", in: a.Output},
			evaluatorCall{kind: "BestEvidence", in: a.Output})
	}
	for _, mode := range []struct {
		name string
		opts []Option
	}{{"pruned", nil}, {"exhaustive", []Option{WithBounds(nil)}}, {"extendable", []Option{WithExtendable()}}} {
		seq := NewEvaluator(tr, m, mode.opts...)
		want := make([]evaluatorCall, len(calls))
		for i, c := range calls {
			want[i] = c.run(seq)
		}
		const goroutines = 4
		ev := NewEvaluator(tr, m, mode.opts...)
		got := make([][]evaluatorCall, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = make([]evaluatorCall, len(calls))
				for j := range calls {
					i := (j + g*len(calls)/goroutines) % len(calls)
					got[g][i] = calls[i].run(ev)
				}
			}()
		}
		wg.Wait()
		for g := range got {
			for i := range calls {
				if !got[g][i].same(want[i]) {
					t.Fatalf("%s goroutine %d: %s(%v) = %+v, sequential %+v", mode.name, g, calls[i].kind, calls[i].in, got[g][i], want[i])
				}
			}
		}
	}
}
