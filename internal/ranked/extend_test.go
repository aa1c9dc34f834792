package ranked

import (
	"context"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

// assertRankedPrefixMatches compares a k-answer drain of the carried
// enumerator against a from-scratch enumeration of the same input. The
// contract is exact modulo ties: rank-by-rank scores must be
// bit-identical, and within every maximal run of equal scores the
// answer sets must agree — where scores strictly decrease this forces
// byte-identical outputs at every rank. Order inside a tied class is
// construction-dependent by design: a from-scratch drain discovers some
// tied answers only as children of emitted tied parents, while the
// reseeded drain holds them all up front, and forcing one canonical
// global tie order would require eagerly resolving every bound-tied
// child before each emission (abandoning lazy Murty resolution). The
// fresh enumerator is drained past k through the last tied class so a
// k-boundary that splits a class compares against the full class.
func assertRankedPrefixMatches(t *testing.T, label string, got []Answer, fresh *Enumerator, k int) {
	t.Helper()
	want := drainAnswers(fresh.Next, k)
	if len(want) > 0 {
		last := want[len(want)-1].LogEmax
		for {
			a, ok := fresh.Next()
			if !ok || a.LogEmax != last {
				break
			}
			want = append(want, a)
		}
	}
	if len(got) != k && len(got) != len(want) {
		t.Fatalf("%s: got %d answers, want %d (k=%d)", label, len(got), len(want), k)
	}
	for i := range got {
		if got[i].LogEmax != want[i].LogEmax {
			t.Fatalf("%s rank %d: score %v, want %v (must be bit-identical)",
				label, i, got[i].LogEmax, want[i].LogEmax)
		}
	}
	// Tie-class set comparison: every got answer must appear in the fresh
	// class with its score, and any class got fully contains must match
	// the fresh class size (the final, possibly k-truncated class is
	// subset-only).
	wantByScore := map[float64]map[string]bool{}
	for _, a := range want {
		m := wantByScore[a.LogEmax]
		if m == nil {
			m = map[string]bool{}
			wantByScore[a.LogEmax] = m
		}
		m[automata.StringKey(a.Output)] = true
	}
	gotClass := map[float64]int{}
	for i, a := range got {
		if !wantByScore[a.LogEmax][automata.StringKey(a.Output)] {
			t.Fatalf("%s rank %d: output %v (score %v) not among the from-scratch answers of that score",
				label, i, a.Output, a.LogEmax)
		}
		gotClass[a.LogEmax]++
	}
	if len(got) > 0 {
		lastScore := got[len(got)-1].LogEmax
		for s, n := range gotClass {
			if s != lastScore && n != len(wantByScore[s]) {
				t.Fatalf("%s: tie class at score %v has %d answers in the carried drain, %d from scratch",
					label, s, n, len(wantByScore[s]))
			}
		}
	}
}

// growBy appends the transition matrices full.TransAt(from..from+cnt-1)
// to grown, one event at a time (the AppendEvents idiom).
func growBy(t *testing.T, grown, full *markov.Sequence, from, cnt int) *markov.Sequence {
	t.Helper()
	for i := from; i < from+cnt; i++ {
		var err error
		grown, err = grown.Extended([][][]float64{full.TransAt(i)})
		if err != nil {
			t.Fatalf("extend at %d: %v", i, err)
		}
	}
	return grown
}

// TestExtendEnumeratorMatchesFresh is the core differential contract of
// the incremental ranked reseed: after any number of appends, a carried
// enumerator (ExtendEnumerator) emits bit-identical scores rank by rank
// and the same answers (set-identical per tied score class, exact order
// where scores strictly decrease) as a from-scratch enumerator over the
// grown sequence, across random instances, epochs and drain depths.
func TestExtendEnumeratorMatchesFresh(t *testing.T) {
	testutil.CheckLeaks(t)
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(91100 + trial)))
		n := 8 + rng.Intn(6)
		full := markov.Random(in, n, 0.6, rng)
		tr := randomNDTransducer(in, out, 1+rng.Intn(3), rng)
		p := 3 + rng.Intn(3)
		grown := full.Window(1, p)

		rng.Intn(2) // formerly drew a worker count; kept so later draws stay the same
		ev := NewEvaluator(tr, grown, WithExtendable())
		e := ev.Enumerate()
		lastCount := len(drainAnswers(e.Next, 5))
		if lastCount == 0 {
			continue // empty language: nothing to carry, fresh path covers it
		}
		for epoch := 0; p < n; epoch++ {
			step := 1 + rng.Intn(3)
			if p+step > n {
				step = n - p
			}
			grown = growBy(t, grown, full, p, step)
			p += step
			ne, ok := ExtendEnumerator(e, grown, 1)
			if !ok {
				// Refusal is only legitimate when the last drain emitted
				// nothing (the grown language went empty mid-stream);
				// production then falls back to a fresh extendable build.
				if lastCount > 0 {
					t.Fatalf("trial %d epoch %d: ExtendEnumerator refused a drained extendable enumerator", trial, epoch)
				}
				ne = NewEvaluator(tr, grown, WithExtendable()).Enumerate()
			}
			e = ne
			k := 1 + rng.Intn(8)
			got := drainAnswers(e.Next, k)
			assertRankedPrefixMatches(t, "extend vs fresh", got, NewEnumerator(tr, grown), k)
			lastCount = len(got)
		}
	}
}

// TestExtendEnumeratorApplicationWorkloads runs the same differential on
// the RFID and textgen serving workloads with k ∈ {1, 10} across
// repeated appends.
func TestExtendEnumeratorApplicationWorkloads(t *testing.T) {
	testutil.CheckLeaks(t)
	type workload struct {
		name string
		t    *transducer.Transducer
		m    *markov.Sequence
	}
	var ws []workload
	{
		tr, m := rfidRankedWorkload(t, 40)
		ws = append(ws, workload{"rfid", tr, m})
	}
	{
		tr, m := textgenRankedWorkload(t)
		ws = append(ws, workload{"textgen", tr, m})
	}
	for _, w := range ws {
		for _, k := range []int{1, 10} {
			n := w.m.Len()
			p := n - 7
			grown := w.m.Window(1, p)
			ev := NewEvaluator(w.t, grown, WithExtendable())
			e := ev.Enumerate()
			drainAnswers(e.Next, k)
			for p < n {
				step := 2
				if p+step > n {
					step = n - p
				}
				grown = growBy(t, grown, w.m, p, step)
				p += step
				ne, ok := ExtendEnumerator(e, grown, 1)
				if !ok {
					t.Fatalf("%s k=%d: extension refused", w.name, k)
				}
				e = ne
				got := drainAnswers(e.Next, k)
				assertRankedPrefixMatches(t, w.name+" extend", got, NewEnumerator(w.t, grown), k)
			}
			reused, reseeded, _ := e.ExtendStats()
			if reused == 0 {
				t.Fatalf("%s k=%d: no answers reused across %d-event growth (reseeded=%d)", w.name, k, 7, reseeded)
			}
		}
	}
}

// TestExtendEnumeratorCancelResume pauses a drain mid-flight with a
// cancelled context, extends across the pause, and requires the carried
// enumerator to agree with a fresh one — cancellation must leave the
// retained tree in a carriable state.
func TestExtendEnumeratorCancelResume(t *testing.T) {
	testutil.CheckLeaks(t)
	tr, full := rfidRankedWorkload(t, 40)
	n := full.Len()
	p := n - 4
	grown := full.Window(1, p)
	ev := NewEvaluator(tr, grown, WithExtendable())
	e := ev.Enumerate()
	if _, err := drainCtx(context.Background(), e, 4); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.NextCtx(ctx); err == nil {
		t.Fatal("cancelled NextCtx did not report the cancellation")
	}
	grown = growBy(t, grown, full, p, 4)
	ne, ok := ExtendEnumerator(e, grown, 1)
	if !ok {
		t.Fatal("extension refused after cancelled drain")
	}
	got := drainAnswers(ne.Next, 10)
	assertRankedPrefixMatches(t, "cancel-extend-resume", got, NewEnumerator(tr, grown), 10)
}

// TestExtendEnumeratorRefusals pins the fallback contract: nil,
// non-extendable, and undrained enumerators are not carried.
func TestExtendEnumeratorRefusals(t *testing.T) {
	tr, full := rfidRankedWorkload(t, 20)
	grown := full.Window(1, 16)
	if _, ok := ExtendEnumerator(nil, full, 1); ok {
		t.Fatal("nil enumerator carried")
	}
	plain := NewEnumerator(tr, grown)
	drainAnswers(plain.Next, 3)
	if _, ok := ExtendEnumerator(plain, full, 1); ok {
		t.Fatal("non-extendable enumerator carried")
	}
	fresh := NewEvaluator(tr, grown, WithExtendable()).Enumerate()
	if _, ok := ExtendEnumerator(fresh, full, 1); ok {
		t.Fatal("undrained enumerator carried — nothing resolved is worth carrying")
	}
}
