package lawler_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

func (u *universe) resolve(_ context.Context, c transducer.Constraint, _ string, _ bool, _ string) (string, float64, bool, error) {
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
func (u *universe) childrenBinary(c transducer.Constraint, top *string) []transducer.Constraint {
	var rest []int
	ti := u.index(*top)
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
		Carried:  true,
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

// TestCarryHandsEmittedThenFrontier: Carry hands reprice every emitted
// answer first, in emission order, with the region that emitted it, then
// the unemitted remainder — queued regions and regions decided empty. The
// successor drains what reprice rewrote, and the receiver stays
// drainable.
func TestCarryHandsEmittedThenFrontier(t *testing.T) {
	u := &universe{names: []string{"aa", "bb", "cc"}, scores: []float64{3, 2, 1}}
	cfg := u.config(false)
	// Children: remainder split into singletons plus one always-empty
	// region, so a region is decided empty.
	cfg.Children = func(c transducer.Constraint, top *string) []transducer.Constraint {
		out := []transducer.Constraint{u.region(nil)}
		ti := u.index(*top)
		for _, m := range u.members(c) {
			if m != ti {
				out = append(out, u.region([]int{m}))
			}
		}
		return out
	}
	e := lawler.New(cfg)
	tops, _ := drain(e, 2)
	if !reflect.DeepEqual(tops, []string{"aa", "bb"}) {
		t.Fatalf("drain = %v", tops)
	}
	var got []lawler.Region[string]
	ne := e.Carry(cfg, func(r *lawler.Region[string]) {
		got = append(got, *r)
		if r.Emitted {
			r.C, r.Parent, r.Root = u.region([]int{u.index(r.Top)}), r.Top, false
		}
		r.Bound = 10
	})
	if ne == nil {
		t.Fatal("Carry refused a drained enumeration")
	}
	// Two emissions, then three unemitted regions: aa's empty child,
	// resolved empty on the way to bb; cc's singleton, resolved but not
	// emitted; bb's empty child, never resolved.
	if len(got) != 5 {
		t.Fatalf("Carry handed %d regions, want 5: %+v", len(got), got)
	}
	if r := got[0]; !r.Emitted || !r.Root || r.Top != "aa" {
		t.Fatalf("first region %+v, want aa emitted by the root", r)
	}
	if r := got[1]; !r.Emitted || r.Root || r.Parent != "aa" || r.Top != "bb" || !reflect.DeepEqual(r.C, u.region([]int{1})) {
		t.Fatalf("second region %+v, want bb emitted by aa's child {1}", r)
	}
	var empty int
	for _, r := range got[2:] {
		switch {
		case r.Emitted || r.Root:
			t.Fatalf("unemitted region misreported: %+v", r)
		case len(r.C.Prefix) == 0:
			empty++
		case !reflect.DeepEqual(r.C, u.region([]int{2})) || r.Top != "cc":
			t.Fatalf("unexpected unemitted region %+v", r)
		}
	}
	if empty != 2 {
		t.Fatalf("Carry handed %d empty regions, want 2", empty)
	}
	if carried, _ := drain(ne, 10); !reflect.DeepEqual(carried, []string{"aa", "bb", "cc"}) {
		t.Fatalf("successor drain = %v, want every answer once", carried)
	}
	if rest, _ := drain(e, 10); !reflect.DeepEqual(rest, []string{"cc"}) {
		t.Fatalf("receiver drain after Carry = %v, want the remaining cc", rest)
	}
}

// TestCarryRefusesRootOnly: an enumeration that has emitted nothing and
// queued nothing but its root has nothing to carry, also once its root
// is decided empty.
func TestCarryRefusesRootOnly(t *testing.T) {
	reprice := func(r *lawler.Region[string]) { t.Fatalf("reprice called for %+v", r) }
	u := &universe{names: []string{"aa"}, scores: []float64{1}}
	if lawler.New(u.config(false)).Carry(u.config(false), reprice) != nil {
		t.Fatal("undrained enumeration carried")
	}
	none := &universe{}
	e := lawler.New(none.config(false))
	if _, _, ok := e.Next(); ok {
		t.Fatal("empty universe emitted an answer")
	}
	if e.Carry(none.config(false), reprice) != nil {
		t.Fatal("enumeration with an empty root carried")
	}
}

// TestPriorRoundTrip: Carry hands reprice, with each queued or dead
// region, the payload of its last resolve — its top, what Resolve
// returned with ok=false for a dead region, the zero T for a region that
// never resolved — and the successor hands the Top reprice leaves to the
// region's first resolve, which is how a resolver's state crosses an
// append.
func TestPriorRoundTrip(t *testing.T) {
	u := &universe{names: []string{"aa", "bb", "cc"}, scores: []float64{3, 2, 1}}
	cfg := u.config(false)
	// Children: the remainder as singletons plus one empty region, told
	// apart by a Forbidden tag naming the answer it was split from.
	cfg.Children = func(c transducer.Constraint, top *string) []transducer.Constraint {
		empty := u.region(nil)
		empty.Forbidden = map[automata.Symbol]bool{automata.Symbol(u.index(*top)): true}
		out := []transducer.Constraint{empty}
		for _, m := range u.members(c) {
			if m != u.index(*top) {
				out = append(out, u.region([]int{m}))
			}
		}
		return out
	}
	id := func(c transducer.Constraint) string { return fmt.Sprint(c.Prefix, c.Forbidden) }
	// got records the prior of each region's first resolve: a region's
	// later namesakes, the children of carried singletons, come after.
	got := map[string]string{}
	cfg.Resolve = func(ctx context.Context, c transducer.Constraint, parent string, root bool, prior string) (string, float64, bool, error) {
		if _, seen := got[id(c)]; !seen {
			got[id(c)] = prior
		}
		top, sc, ok, err := u.resolve(ctx, c, parent, root, prior)
		if !ok {
			top = "state of an empty region"
		}
		return top, sc, ok, err
	}
	e := lawler.New(cfg)
	drain(e, 2)
	// After aa and bb: aa's empty child resolved dead, cc's singleton
	// resolved but unemitted, bb's empty child never resolved. Each
	// emitted answer is re-offered as its singleton with itself as prior.
	frontier, want := map[string]string{}, map[string]string{}
	ne := e.Carry(cfg, func(r *lawler.Region[string]) {
		if r.Emitted {
			r.C, r.Parent, r.Root = u.region([]int{u.index(r.Top)}), r.Top, false
		} else {
			frontier[id(r.C)] = r.Top
		}
		want[id(r.C)] = r.Top
		r.Bound = 10
	})
	aa, bb := "aa", "bb"
	if wantPriors := map[string]string{
		id(cfg.Children(u.region(allOf(3)), &aa)[0]):    "state of an empty region",
		id(u.region([]int{2})):                          "cc",
		id(cfg.Children(u.region([]int{1, 2}), &bb)[0]): "",
	}; !reflect.DeepEqual(frontier, wantPriors) {
		t.Fatalf("frontier priors = %q, want %q", frontier, wantPriors)
	}
	clear(got)
	drain(ne, 10)
	if len(want) != 5 {
		t.Fatalf("Carry handed %d distinct regions, want 5", len(want))
	}
	for c, prior := range want {
		if p, ok := got[c]; !ok || p != prior {
			t.Fatalf("carried region %s: first resolve received prior %q (resolved: %v), want %q", c, p, ok, prior)
		}
	}
}

// TestCarryKeepsInsertionOrder: with Tie nil the insertion order breaks
// every tie, so when all regions carry one bound the successor resolves
// and emits in the order Carry numbered them. That order must be the
// seeded enumeration's over the emitted answers' singletons, in emission
// order, followed by the unemitted regions in the order they were
// pushed.
func TestCarryKeepsInsertionOrder(t *testing.T) {
	key := func(c transducer.Constraint) string { return fmt.Sprint(c.Prefix) }
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(1300 + trial)))
		u := randomUniverse(rng, 3+rng.Intn(40))
		cfg := u.config(false)
		pushed := []transducer.Constraint{cfg.Root}
		cfg.Children = func(c transducer.Constraint, top *string) []transducer.Constraint {
			kids := u.childrenBinary(c, top)
			pushed = append(pushed, kids...)
			return kids
		}
		e := lawler.New(cfg)
		tops, _ := drain(e, 1+rng.Intn(len(u.names)))
		bound := slices.Max(u.scores)

		// logged is the successors' configuration: plain children, and a
		// resolve that records which region it resolved.
		logged := func(log *[]string) lawler.Config[string] {
			c := u.config(false)
			c.Resolve = func(ctx context.Context, c transducer.Constraint, parent string, root bool, prior string) (string, float64, bool, error) {
				*log = append(*log, key(c))
				return u.resolve(ctx, c, parent, root, prior)
			}
			return c
		}
		var carriedLog, seededLog []string
		unemitted := map[string]lawler.Region[string]{}
		ne := e.Carry(logged(&carriedLog), func(r *lawler.Region[string]) {
			if r.Emitted {
				r.C, r.Parent, r.Root = u.region([]int{u.index(r.Top)}), r.Top, false
			} else {
				unemitted[key(r.C)] = *r
			}
			r.Bound = bound
		})
		var seeds []lawler.Seed[string]
		for _, top := range tops {
			seeds = append(seeds, lawler.Seed[string]{C: u.region([]int{u.index(top)}), Parent: top, Prior: top, Bound: bound})
		}
		for _, c := range pushed {
			if r, ok := unemitted[key(c)]; ok {
				seeds = append(seeds, lawler.Seed[string]{C: r.C, Parent: r.Parent, Prior: r.Top, Root: r.Root, Bound: bound})
				delete(unemitted, key(c))
			}
		}
		if len(unemitted) != 0 {
			t.Fatalf("trial %d: Carry handed regions that were never pushed: %v", trial, unemitted)
		}
		got, gotScores := drain(ne, len(u.names)+1)
		want, wantScores := drain(lawler.NewSeeded(logged(&seededLog), seeds), len(u.names)+1)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotScores, wantScores) {
			t.Fatalf("trial %d: carried emissions diverge from the seeded order\ngot  %v\nwant %v", trial, got, want)
		}
		if !reflect.DeepEqual(carriedLog, seededLog) {
			t.Fatalf("trial %d: carried resolves diverge from the seeded order\ngot  %v\nwant %v", trial, carriedLog, seededLog)
		}
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
