package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/rfid"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

// growEngineSeq appends full.TransAt(from..from+cnt-1) to grown, one
// event at a time (the AppendEvents idiom).
func growEngineSeq(t *testing.T, grown, full *markov.Sequence, from, cnt int) *markov.Sequence {
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

// engineTopKThroughTies drains the k best answers of e and extends the
// drain through the last tied score class, so a k-boundary that splits
// a tie class can be compared as a set (see assertEngineTopKMatches).
func engineTopKThroughTies(t *testing.T, e *Engine, k int) []Answer {
	t.Helper()
	out := e.TopK(k)
	if len(out) < k {
		return out
	}
	classScore := out[k-1].Score
	for kk := k + 1; ; kk++ {
		next := e.TopK(kk)
		if len(next) < kk {
			return next
		}
		if next[kk-1].Score != classScore {
			return next[:kk-1]
		}
	}
}

// assertEngineTopKMatches requires got (a k-drain) to agree with want
// (a drain extended through its final tie class) rank by rank on
// bit-identical scores and set-identically within every maximal run of
// equal scores; where scores strictly decrease this forces identical
// answers at every rank. Order inside an exact-tie class is
// construction-dependent (see ranked.ExtendEnumerator).
func assertEngineTopKMatches(t *testing.T, label string, got, want []Answer, k int) {
	t.Helper()
	n := min(k, len(want))
	if len(got) != n {
		t.Fatalf("%s: got %d answers, want %d (k=%d)", label, len(got), n, k)
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			t.Fatalf("%s rank %d: score %v, want %v (must be bit-identical)", label, i, got[i].Score, want[i].Score)
		}
	}
	key := func(a Answer) string { return fmt.Sprintf("%v|%d|%s", a.Output, a.Index, a.Kind) }
	wantBy := map[float64]map[string]bool{}
	for _, a := range want {
		m := wantBy[a.Score]
		if m == nil {
			m = map[string]bool{}
			wantBy[a.Score] = m
		}
		m[key(a)] = true
	}
	gotClass := map[float64]int{}
	for i, a := range got {
		if !wantBy[a.Score][key(a)] {
			t.Fatalf("%s rank %d: answer %v (score %v) not among the reference answers of that score", label, i, a.Output, a.Score)
		}
		gotClass[a.Score]++
	}
	if len(got) == 0 {
		return
	}
	last := got[len(got)-1].Score
	for s, c := range gotClass {
		if s != last && c != len(wantBy[s]) {
			t.Fatalf("%s: tie class at score %v has %d answers, reference has %d", label, s, c, len(wantBy[s]))
		}
	}
}

// extendWorkloads builds the differential workloads: the RFID serving
// query and a random nondeterministic transducer over a random sequence
// (nondeterminism produces exact score ties, exercising the tie-class
// contract).
func extendWorkloads(t *testing.T, n int) (out []struct {
	name string
	q    *transducer.Transducer
	full *markov.Sequence
}) {
	t.Helper()
	f := rfid.Hospital(3, 2)
	h := rfid.BuildHMM(f, rfid.DefaultNoise)
	trc, err := rfid.Simulate(h, n, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, struct {
		name string
		q    *transducer.Transducer
		full *markov.Sequence
	}{"rfid", rfid.PlaceTransducer(f, "lab"), trc.Seq})

	rng := rand.New(rand.NewSource(29))
	in := automata.MustAlphabet("a", "b", "c")
	outs := automata.MustAlphabet("x", "y")
	tr := transducer.New(in, outs, 3, 0)
	for st := 0; st < 3; st++ {
		tr.SetAccepting(st, true)
		for _, s := range in.Symbols() {
			var e []automata.Symbol
			if rng.Intn(2) == 0 {
				e = []automata.Symbol{automata.Symbol(rng.Intn(outs.Size()))}
			}
			tr.AddTransition(st, s, rng.Intn(3), e)
		}
	}
	out = append(out, struct {
		name string
		q    *transducer.Transducer
		full *markov.Sequence
	}{"random", tr, markov.Random(in, n, 0.7, rng)})
	return out
}

// TestExtendValidatedDifferential: engines chained with ExtendValidated
// across appends answer TopK identically (bit-identical scores,
// set-identical tie classes) to engines bound fresh at every length with
// BindValidated (the from-scratch reference).
func TestExtendValidatedDifferential(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 30
	for _, wl := range extendWorkloads(t, n) {
		for _, k := range []int{1, 10} {
			prep := PrepareTransducer(wl.q)
			p := n - 8
			grown := wl.full.Window(1, p)
			eng, err := prep.ExtendValidated(nil, grown)
			if err != nil {
				t.Fatal(err)
			}
			eng.TopK(k)
			for p < n {
				step := 2
				if p+step > n {
					step = n - p
				}
				grown = growEngineSeq(t, grown, wl.full, p, step)
				p += step
				eng, err = prep.ExtendValidated(eng, grown)
				if err != nil {
					t.Fatal(err)
				}
				got := eng.TopK(k)
				refEng, err := prep.BindValidated(grown)
				if err != nil {
					t.Fatal(err)
				}
				want := engineTopKThroughTies(t, refEng, k)
				assertEngineTopKMatches(t, fmt.Sprintf("%s k=%d p=%d", wl.name, k, p), got, want, k)
			}
			if s := eng.PruneStats(); s.RankedReused == 0 {
				t.Fatalf("%s k=%d: no ranked answers carried across appends: %+v", wl.name, k, s)
			}
		}
	}
}

// TestExtendValidatedConcurrentGenerations: three engines along one
// ExtendValidated chain share carried checkpoint handles and one
// retained-frontier map. Each is drained partly, then all three run
// TopK(25) at once from separate goroutines, and each result must match
// a fresh BindValidated drain of its own sequence. Under -race this
// exercises the lazy handles' single-flight materialization, the
// retention mutex and the reuse counters across generations.
func TestExtendValidatedConcurrentGenerations(t *testing.T) {
	testutil.CheckLeaks(t)
	const k = 25
	for _, wl := range extendWorkloads(t, 35) {
		prep := PrepareTransducer(wl.q)
		p := 30
		grown := wl.full.Window(1, p)
		var engs []*Engine
		var seqs []*markov.Sequence
		var eng *Engine
		for _, step := range []int{0, 3, 2} {
			grown = growEngineSeq(t, grown, wl.full, p, step)
			p += step
			var err error
			if eng, err = prep.ExtendValidated(eng, grown); err != nil {
				t.Fatal(err)
			}
			eng.TopK(5)
			engs = append(engs, eng)
			seqs = append(seqs, grown)
		}
		got := make([][]Answer, len(engs))
		var wg sync.WaitGroup
		for i, e := range engs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = e.TopK(k)
			}()
		}
		wg.Wait()
		if s := engs[len(engs)-1].PruneStats(); s.RankedReused == 0 {
			t.Fatalf("%s: the chain carried no ranked answers: %+v", wl.name, s)
		}
		for i, m := range seqs {
			ref, err := prep.BindValidated(m)
			if err != nil {
				t.Fatal(err)
			}
			want := engineTopKThroughTies(t, ref, k)
			assertEngineTopKMatches(t, fmt.Sprintf("%s generation %d (n=%d)", wl.name, i, m.Len()), got[i], want, k)
		}
	}
}

// TestExtendValidatedSkipsDormantHandles: chaining appends while the
// drain stays shallow carries some prefix-checkpoint handles that never
// materialized a DP layer — every child aligned to them stayed
// bound-dominated — and the carry keeps the deferral instead of
// rebuilding, counted by PruneStats.HandlesSkipped.
func TestExtendValidatedSkipsDormantHandles(t *testing.T) {
	const n = 40
	wl := extendWorkloads(t, n)[0]
	prep := PrepareTransducer(wl.q)
	p := n - 10
	grown := wl.full.Window(1, p)
	eng, err := prep.ExtendValidated(nil, grown)
	if err != nil {
		t.Fatal(err)
	}
	eng.TopK(6)
	for p < n {
		grown = growEngineSeq(t, grown, wl.full, p, 2)
		p += 2
		eng, err = prep.ExtendValidated(eng, grown)
		if err != nil {
			t.Fatal(err)
		}
		eng.TopK(6)
	}
	s := eng.PruneStats()
	if s.HandlesSkipped == 0 {
		t.Fatalf("no dormant checkpoint handles carried without materialization: %+v", s)
	}
	// The carried engine still answers exactly like a fresh one.
	ref, err := prep.Bind(grown)
	if err != nil {
		t.Fatal(err)
	}
	assertEngineTopKMatches(t, "dormant-handle carry", eng.TopK(6), engineTopKThroughTies(t, ref, 6), 6)
}

// TestExtendValidatedDeepCarry drains past the extendable evaluator's
// checkpoint cache (4096 alignments) at every append, so traces retained
// for the continuing resume outlive the checkpoints they were traced
// against: an evicted alignment comes back as a fresh, usually
// donor-derived handle whose layers order the same cells differently.
// A continuation through such a handle would follow the wrong cells; the
// carried drain must instead match a fresh BindValidated drain score for
// score at every append.
func TestExtendValidatedDeepCarry(t *testing.T) {
	const from, to, k = 11, 15, 4500
	rng := rand.New(rand.NewSource(77002))
	in := automata.MustAlphabet("a", "b", "c")
	outs := automata.MustAlphabet("x", "y")
	full := markov.Random(in, 16, 0.8, rng)
	tr := transducer.New(in, outs, 2, 0)
	for q := 0; q < 2; q++ {
		tr.SetAccepting(q, true)
		for _, s := range in.Symbols() {
			for q2 := 0; q2 < 2; q2++ {
				e := make([]automata.Symbol, rng.Intn(3))
				for i := range e {
					e[i] = automata.Symbol(rng.Intn(outs.Size()))
				}
				tr.AddTransition(q, s, q2, e)
			}
		}
	}
	prep := PrepareTransducer(tr)
	grown := full.Window(1, from)
	eng, err := prep.ExtendValidated(nil, grown)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.TopK(k); len(got) < k {
		t.Fatalf("workload has only %d answers at n=%d; the drain must outgrow the checkpoint cache", len(got), from)
	}
	for p := from; p < to; p++ {
		grown = growEngineSeq(t, grown, full, p, 1)
		if eng, err = prep.ExtendValidated(eng, grown); err != nil {
			t.Fatal(err)
		}
		got := eng.TopK(k)
		ref, err := prep.BindValidated(grown)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.TopK(k)
		if len(got) != len(want) {
			t.Fatalf("n=%d: carried drain has %d answers, fresh %d", p+1, len(got), len(want))
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				t.Fatalf("n=%d rank %d: carried %v scores %v, fresh %v scores %v",
					p+1, i, got[i].Output, got[i].Score, want[i].Output, want[i].Score)
			}
		}
	}
	if s := eng.PruneStats(); s.RankedReused == 0 {
		t.Fatalf("no ranked answers carried across appends: %+v", s)
	}
}

// TestEnsureBoundsRejectsStaleSweep is the staleness audit of the
// weight-pushed potentials: Bounds rows look forward to the end of the
// sequence, so a sweep computed over a shorter epoch must never be used
// as a pruning threshold after an append. ensureBounds re-checks the
// stored sweep against the engine's view and rebuilds on mismatch.
func TestEnsureBoundsRejectsStaleSweep(t *testing.T) {
	const n = 44
	wl := extendWorkloads(t, n)[0]
	prep := PrepareTransducer(wl.q)
	short, err := prep.Bind(wl.full.Window(1, n-4))
	if err != nil {
		t.Fatal(err)
	}
	stale := short.ensureBounds()
	if stale == nil {
		t.Fatal("no bounds built for the short binding")
	}
	full, err := prep.Bind(wl.full)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a carried-over sweep from the pre-append epoch.
	full.bounds.Store(stale)
	b := full.ensureBounds()
	if b == stale {
		t.Fatal("ensureBounds served a sweep from a shorter epoch as a pruning threshold")
	}
	if b == nil || !b.MatchesView(full.m.View()) {
		t.Fatalf("rebuilt bounds do not match the engine's view")
	}
	// And the rebuilt sweep is stable on repeat.
	if again := full.ensureBounds(); again != b {
		t.Fatal("matching bounds were rebuilt a second time")
	}
}

// TestRankedModeSelection pins which evaluator mode each engine drains
// through: a binding shorter than kernel.BoundsMinN runs the exhaustive
// sweep (no potentials, so no pruned resolves), a longer one prunes with
// the engine's shared bounds, and an ExtendValidated engine is
// extendable whatever its length.
func TestRankedModeSelection(t *testing.T) {
	wl := extendWorkloads(t, kernel.BoundsMinN)[0]
	prep := PrepareTransducer(wl.q)
	for _, tc := range []struct {
		name   string
		n      int
		extend bool
	}{
		{"short", kernel.BoundsMinN - 1, false},
		{"long", kernel.BoundsMinN, false},
		{"extendable", kernel.BoundsMinN, true},
	} {
		m := wl.full.Window(1, tc.n)
		if m.Len() != tc.n {
			t.Fatalf("%s: window holds %d positions, want %d", tc.name, m.Len(), tc.n)
		}
		bind := prep.BindValidated
		if tc.extend {
			bind = func(m *markov.Sequence) (*Engine, error) { return prep.ExtendValidated(nil, m) }
		}
		e, err := bind(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.TopK(3)) == 0 {
			t.Fatalf("%s: no answers", tc.name)
		}
		ev := e.topEnum.Evaluator()
		resolves := e.PruneStats().Resolves
		switch {
		case tc.extend:
			if !ev.Extendable() || ev.Bounds() != nil || resolves != 0 {
				t.Fatalf("%s: extendable=%v bounds=%v pruned resolves=%d, want an unpruned extendable drain", tc.name, ev.Extendable(), ev.Bounds() != nil, resolves)
			}
		case tc.n < kernel.BoundsMinN:
			if ev.Extendable() || ev.Bounds() != nil || resolves != 0 {
				t.Fatalf("%s: extendable=%v bounds=%v pruned resolves=%d, want the exhaustive sweep", tc.name, ev.Extendable(), ev.Bounds() != nil, resolves)
			}
		default:
			if ev.Extendable() || ev.Bounds() == nil || ev.Bounds() != e.ensureBounds() || resolves == 0 {
				t.Fatalf("%s: extendable=%v pruned resolves=%d, want a drain pruned by the engine's shared bounds", tc.name, ev.Extendable(), resolves)
			}
		}
	}
}
