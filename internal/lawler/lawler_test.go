package lawler_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/lawler"
	"markovseq/internal/transducer"
)

// The tests drive the generic core with a synthetic answer universe: a
// region is a set of answer indices encoded directly in the constraint's
// Prefix (the core never interprets constraints, only hands them back to
// Resolve/Children), Resolve picks the region's best answer (ties to the
// lexicographically smallest name, so resolution is deterministic), and
// Children partitions the remainder.

type universe struct {
	names  []string
	scores []float64
	// resolves counts Resolve calls — the laziness observable.
	resolves atomic.Int64
}

func (u *universe) region(members []int) transducer.Constraint {
	syms := make([]automata.Symbol, len(members))
	for i, m := range members {
		syms[i] = automata.Symbol(m)
	}
	return transducer.Constraint{Prefix: syms}
}

func (u *universe) members(c transducer.Constraint) []int {
	out := make([]int, len(c.Prefix))
	for i, s := range c.Prefix {
		out[i] = int(s)
	}
	return out
}

func (u *universe) resolve(_ context.Context, c transducer.Constraint, _ string, _ bool) (string, float64, bool, error) {
	u.resolves.Add(1)
	best := -1
	for _, m := range u.members(c) {
		if best < 0 || u.scores[m] > u.scores[best] ||
			(u.scores[m] == u.scores[best] && u.names[m] < u.names[best]) {
			best = m
		}
	}
	if best < 0 {
		return "", 0, false, nil
	}
	return u.names[best], u.scores[best], true, nil
}

func (u *universe) index(name string) int {
	for i, n := range u.names {
		if n == name {
			return i
		}
	}
	return -1
}

// childrenBinary partitions the remainder into at most two halves — a
// deep tree, so most regions are never resolved on a shallow drain.
func (u *universe) childrenBinary(c transducer.Constraint, top string) []transducer.Constraint {
	var rest []int
	ti := u.index(top)
	for _, m := range u.members(c) {
		if m != ti {
			rest = append(rest, m)
		}
	}
	if len(rest) == 0 {
		return nil
	}
	if len(rest) == 1 {
		return []transducer.Constraint{u.region(rest)}
	}
	h := len(rest) / 2
	return []transducer.Constraint{u.region(rest[:h]), u.region(rest[h:])}
}

func (u *universe) config(tie bool) lawler.Config[string] {
	cfg := lawler.Config[string]{
		Root:     u.region(allOf(len(u.names))),
		Resolve:  u.resolve,
		Children: u.childrenBinary,
	}
	if tie {
		cfg.Tie = func(a, b string) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		}
	}
	return cfg
}

func allOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func randomUniverse(rng *rand.Rand, n int) *universe {
	u := &universe{}
	for i := 0; i < n; i++ {
		u.names = append(u.names, string(rune('a'+i%26))+string(rune('a'+(i/26)%26)))
		u.scores = append(u.scores, float64(rng.Intn(2*n))/3)
	}
	return u
}

func drain[T any](e *lawler.Enumerator[T], k int) (tops []T, scores []float64) {
	for len(tops) < k {
		t, s, ok := e.Next()
		if !ok {
			break
		}
		tops = append(tops, t)
		scores = append(scores, s)
	}
	return tops, scores
}

// TestEmitsDecreasingAndDeterministic: full drains are sorted by
// decreasing score, contain every answer exactly once, and are
// byte-identical across repeated drains.
func TestEmitsDecreasingAndDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		u := randomUniverse(rng, 3+rng.Intn(40))
		ref, refScores := drain(lawler.New(u.config(false)), len(u.names)+1)
		if len(ref) != len(u.names) {
			t.Fatalf("trial %d: %d answers emitted, universe has %d", trial, len(ref), len(u.names))
		}
		seen := map[string]bool{}
		for i, name := range ref {
			if seen[name] {
				t.Fatalf("trial %d: %q emitted twice", trial, name)
			}
			seen[name] = true
			if refScores[i] != u.scores[u.index(name)] {
				t.Fatalf("trial %d: %q scored %v, want %v", trial, name, refScores[i], u.scores[u.index(name)])
			}
			if i > 0 && refScores[i] > refScores[i-1] {
				t.Fatalf("trial %d: scores increase at rank %d", trial, i)
			}
		}
		got, gotScores := drain(lawler.New(u.config(false)), len(u.names)+1)
		if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(gotScores, refScores) {
			t.Fatalf("trial %d: a second drain diverges from the first", trial)
		}
	}
}

// TestLazyResolution: a top-1 drain of a large binary-partitioned
// universe resolves exactly one subproblem — the root. Children inherit
// the parent's score as a bound and are never resolved unless they
// surface.
func TestLazyResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	u := randomUniverse(rng, 64)
	e := lawler.New(u.config(false))
	if tops, _ := drain(e, 1); len(tops) != 1 {
		t.Fatal("no answer emitted")
	}
	if n := u.resolves.Load(); n != 1 {
		t.Fatalf("top-1 drain resolved %d subproblems, want 1 (lazy Murty)", n)
	}
}

// TestEmittedLogAndFrontier: the emission log records every emission in
// order with its producing subproblem, and Frontier reports the
// unemitted remainder — queued regions plus regions decided empty
// (Dead), in insertion order.
func TestEmittedLogAndFrontier(t *testing.T) {
	u := &universe{names: []string{"aa", "bb", "cc"}, scores: []float64{3, 2, 1}}
	cfg := u.config(false)
	// Children: remainder split into singletons plus one always-empty
	// region, so the dead list is exercised.
	cfg.Children = func(c transducer.Constraint, top string) []transducer.Constraint {
		out := []transducer.Constraint{u.region(nil)}
		ti := u.index(top)
		for _, m := range u.members(c) {
			if m != ti {
				out = append(out, u.region([]int{m}))
			}
		}
		return out
	}
	e := lawler.New(cfg)
	tops, scores := drain(e, 2)
	if !reflect.DeepEqual(tops, []string{"aa", "bb"}) {
		t.Fatalf("drain = %v", tops)
	}
	log := e.EmittedLog()
	if len(log) != 2 {
		t.Fatalf("emitted log has %d records, want 2", len(log))
	}
	for i, rec := range log {
		if rec.Top != tops[i] || rec.Score != scores[i] {
			t.Fatalf("log[%d] = %+v, want top %q score %v", i, rec, tops[i], scores[i])
		}
	}
	if !log[0].Root {
		t.Fatal("first emission did not come from the root subproblem")
	}
	if log[1].Root || log[1].Parent != "aa" {
		t.Fatalf("second emission's producing subproblem misrecorded: %+v", log[1])
	}
	var live, dead int
	for _, p := range e.Frontier() {
		if p.Dead {
			dead++
			if len(p.C.Prefix) != 0 {
				t.Fatalf("nonempty region reported dead: %+v", p)
			}
		} else {
			live++
		}
	}
	// After two emissions: the first empty region was resolved (dead) on
	// the way to the second emission; cc's singleton was resolved but not
	// emitted, and the second emission's empty region was never resolved
	// — both still live.
	if dead != 1 || live != 2 {
		t.Fatalf("frontier has %d dead / %d live, want 1 / 2", dead, live)
	}
}

// TestNewSeededMatchesFresh: seeding the queue with every answer as a
// bounded singleton — in scrambled insertion order, with inflated but
// admissible bounds — yields the same emission sequence as the fresh
// enumeration when Tie makes the order construction-independent.
func TestNewSeededMatchesFresh(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		u := randomUniverse(rng, 3+rng.Intn(30))
		ref, refScores := drain(lawler.New(u.config(true)), len(u.names))

		var seeds []lawler.Seed[string]
		for _, i := range rng.Perm(len(u.names)) {
			seeds = append(seeds, lawler.Seed[string]{
				C:     u.region([]int{i}),
				Bound: u.scores[i] + float64(rng.Intn(3))*0.25, // admissible: ≥ true score
			})
		}
		got, gotScores := drain(lawler.NewSeeded(u.config(true), seeds), len(u.names))
		if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(gotScores, refScores) {
			t.Fatalf("trial %d: seeded drain diverges\ngot  %v\nwant %v", trial, got, ref)
		}
	}
}

// TestTieCanonical: with Config.Tie, exact score ties emit in canonical
// payload order regardless of construction — a fresh root enumeration
// and a seeded one with reversed insertion order agree. Without Tie the
// insertion sequence decides.
func TestTieCanonical(t *testing.T) {
	u := &universe{names: []string{"aa", "bb", "cc", "dd"}, scores: []float64{1, 1, 1, 1}}
	want := []string{"aa", "bb", "cc", "dd"}
	fresh, _ := drain(lawler.New(u.config(true)), 4)
	if !reflect.DeepEqual(fresh, want) {
		t.Fatalf("fresh tied drain = %v, want canonical %v", fresh, want)
	}
	var seeds []lawler.Seed[string]
	for i := 3; i >= 0; i-- {
		seeds = append(seeds, lawler.Seed[string]{C: u.region([]int{i}), Bound: 1})
	}
	seeded, _ := drain(lawler.NewSeeded(u.config(true), seeds), 4)
	if !reflect.DeepEqual(seeded, want) {
		t.Fatalf("seeded tied drain = %v, want canonical %v", seeded, want)
	}
	// Without Tie, the reversed insertion order is the tie-break.
	noTie, _ := drain(lawler.NewSeeded(u.config(false), seeds), 4)
	if !reflect.DeepEqual(noTie, []string{"dd", "cc", "bb", "aa"}) {
		t.Fatalf("untied seeded drain = %v, want insertion order", noTie)
	}
}

// TestCancellationResumes: a cancelled NextCtx emits nothing and leaves
// the enumeration resumable at exactly the same point.
func TestCancellationResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	u := randomUniverse(rng, 20)
	ref, _ := drain(lawler.New(u.config(false)), 20)

	e := lawler.New(u.config(false))
	var got []string
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for len(got) < 20 {
		if _, _, _, err := e.NextCtx(cancelled); err == nil && len(got) < 20 {
			t.Fatal("cancelled NextCtx reported no error")
		}
		top, _, ok, err := e.NextCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, top)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("interleaved cancellation changed the sequence")
	}
}

// floor is the universe's tie floor: a region's best-named member sorts
// at or before every answer the region holds.
func (u *universe) floor(c transducer.Constraint) (string, bool) {
	min := ""
	for i, m := range u.members(c) {
		if i == 0 || u.names[m] < min {
			min = u.names[m]
		}
	}
	return min, false
}

// TestFloorKeepsEmission: Config.Floor changes only which tied regions
// are resolved, never what is emitted — across tie-heavy universes,
// drain depths and seeded construction — and it never resolves more
// than Tie alone.
func TestFloorKeepsEmission(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		u := randomUniverse(rng, 3+rng.Intn(40))
		for i := range u.scores {
			u.scores[i] = float64(rng.Intn(3)) // three levels: large exact-tie classes
		}
		for _, k := range []int{1, 3, len(u.names)} {
			u.resolves.Store(0)
			ref, refScores := drain(lawler.New(u.config(true)), k)
			plain := u.resolves.Load()
			cfg := u.config(true)
			cfg.Floor = u.floor
			u.resolves.Store(0)
			got, gotScores := drain(lawler.New(cfg), k)
			if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(gotScores, refScores) {
				t.Fatalf("trial %d k=%d: floors changed the drain\ngot  %v\nwant %v", trial, k, got, ref)
			}
			if n := u.resolves.Load(); n > plain {
				t.Fatalf("trial %d k=%d: floors resolved %d subproblems, Tie alone %d", trial, k, n, plain)
			}
		}
		cfg := u.config(true)
		cfg.Floor = u.floor
		var seeds []lawler.Seed[string]
		for _, i := range rng.Perm(len(u.names)) {
			seeds = append(seeds, lawler.Seed[string]{C: u.region([]int{i}), Bound: u.scores[i]})
		}
		ref, _ := drain(lawler.New(u.config(true)), len(u.names))
		if got, _ := drain(lawler.NewSeeded(cfg, seeds), len(u.names)); !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d: seeded drain with floors diverges\ngot  %v\nwant %v", trial, got, ref)
		}
	}
}

// TestFloorSkipsTiedSiblings: on a universe of one exact tie class, Tie
// alone resolves every bound-tied child before each emission, while a
// floor lets the front emit once no queued region can sort ahead of it.
func TestFloorSkipsTiedSiblings(t *testing.T) {
	u := randomUniverse(rand.New(rand.NewSource(3)), 64)
	for i := range u.scores {
		u.scores[i] = 1
	}
	const k = 8
	ref, _ := drain(lawler.New(u.config(true)), k)
	plain := u.resolves.Swap(0)
	cfg := u.config(true)
	cfg.Floor = u.floor
	got, _ := drain(lawler.New(cfg), k)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("floors changed the drain: got %v, want %v", got, ref)
	}
	// Binary children: Tie alone resolves both halves per emission; the
	// floor resolves only the half holding the next name.
	if n := u.resolves.Load(); n != k || plain <= n {
		t.Fatalf("top-%d drain resolved %d subproblems with floors, %d without; want %d with, more without", k, n, plain, k)
	}
}
