package transducer

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"markovseq/internal/automata"
)

// figure2 reconstructs the running-example transducer locally (the paperex
// package depends on this one, so the fixture is duplicated in miniature
// here to avoid an import cycle).
func figure2(t *testing.T) (*automata.Alphabet, *automata.Alphabet, *Transducer) {
	t.Helper()
	in := automata.MustAlphabet("r1a", "r1b", "r2a", "r2b", "la", "lb")
	out := automata.MustAlphabet("1", "2", "λ")
	tr := New(in, out, 4, 0)
	for _, q := range []int{1, 2, 3} {
		tr.SetAccepting(q, true)
	}
	sym := in.MustSymbol
	o := func(n string) []automata.Symbol { return []automata.Symbol{out.MustSymbol(n)} }
	room1 := []automata.Symbol{sym("r1a"), sym("r1b")}
	room2 := []automata.Symbol{sym("r2a"), sym("r2b")}
	lab := []automata.Symbol{sym("la"), sym("lb")}
	for _, s := range append(append([]automata.Symbol{}, room1...), room2...) {
		tr.AddTransition(0, s, 0, nil)
	}
	for _, s := range lab {
		tr.AddTransition(0, s, 1, nil)
		tr.AddTransition(1, s, 1, nil)
		tr.AddTransition(2, s, 1, o("λ"))
		tr.AddTransition(3, s, 1, o("λ"))
	}
	for _, s := range room1 {
		tr.AddTransition(1, s, 2, o("1"))
		tr.AddTransition(2, s, 2, nil)
		tr.AddTransition(3, s, 2, o("1"))
	}
	for _, s := range room2 {
		tr.AddTransition(1, s, 3, o("2"))
		tr.AddTransition(2, s, 3, o("2"))
		tr.AddTransition(3, s, 3, nil)
	}
	return in, out, tr
}

func TestFigure2Classification(t *testing.T) {
	_, _, tr := figure2(t)
	if !tr.IsDeterministic() {
		t.Fatal("Figure 2 transducer should be deterministic")
	}
	if !tr.IsSelective() {
		t.Fatal("Figure 2 transducer should be selective")
	}
	if _, ok := tr.UniformK(); ok {
		t.Fatal("Figure 2 transducer should not be uniform")
	}
	if tr.IsMealy() {
		t.Fatal("Figure 2 transducer is not a Mealy machine")
	}
	if tr.MaxEmitLen() != 1 {
		t.Fatalf("MaxEmitLen = %d, want 1", tr.MaxEmitLen())
	}
}

func TestTable1Outputs(t *testing.T) {
	in, out, tr := figure2(t)
	cases := []struct {
		world  string
		output string
		accept bool
	}{
		{"r1a la la r1a r2a", "1 2", true},
		{"r1a r1a la r1a r2a", "1 2", true},
		{"la r1b r1b r1a r2a", "1 2", true},
		{"r1a la r2a r1b lb", "2 1 λ", true},
		{"r1a r1a r2b r1b r1b", "", false}, // rejected: no lab visit
	}
	for _, c := range cases {
		got, ok := tr.TransduceDet(in.MustParseString(c.world))
		if ok != c.accept {
			t.Fatalf("world %q: accept = %v, want %v", c.world, ok, c.accept)
		}
		if !ok {
			continue
		}
		if want := out.MustParseString(c.output); !automata.EqualStrings(got, want) {
			t.Fatalf("world %q: output %v, want %v", c.world, got, want)
		}
		// Transduce must agree with TransduceDet for deterministic machines.
		all := tr.Transduce(in.MustParseString(c.world), 0)
		if len(all) != 1 || !automata.EqualStrings(all[0], got) {
			t.Fatalf("Transduce disagrees with TransduceDet on %q", c.world)
		}
	}
}

func TestMealyAndProjectorPredicates(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	// A one-state Mealy machine: copy a->x, b->y.
	m := New(in, out, 1, 0)
	m.SetAccepting(0, true)
	m.AddTransition(0, in.MustSymbol("a"), 0, []automata.Symbol{out.MustSymbol("x")})
	m.AddTransition(0, in.MustSymbol("b"), 0, []automata.Symbol{out.MustSymbol("y")})
	if !m.IsMealy() {
		t.Fatal("copy machine should be Mealy")
	}
	if k, ok := m.UniformK(); !ok || k != 1 {
		t.Fatalf("UniformK = %d,%v; want 1,true", k, ok)
	}
	if m.IsProjector() {
		t.Fatal("renaming machine is not a projector")
	}

	// A projector over a shared alphabet: keep a's, drop b's.
	shared := automata.MustAlphabet("a", "b")
	pr := New(shared, shared, 1, 0)
	pr.SetAccepting(0, true)
	pr.AddTransition(0, shared.MustSymbol("a"), 0, []automata.Symbol{shared.MustSymbol("a")})
	pr.AddTransition(0, shared.MustSymbol("b"), 0, nil)
	if !pr.IsProjector() {
		t.Fatal("keep-a machine should be a projector")
	}
	if pr.IsMealy() {
		t.Fatal("non-uniform projector is not Mealy")
	}
	got, ok := pr.TransduceDet(shared.MustParseString("a b a b b"))
	if !ok || !automata.EqualStrings(got, shared.MustParseString("a a")) {
		t.Fatalf("projector output = %v, ok=%v", got, ok)
	}
}

func TestNondeterministicTransduce(t *testing.T) {
	in := automata.MustAlphabet("a")
	out := automata.MustAlphabet("x", "y")
	// On each a, nondeterministically emit x (stay in 0) or y (go to 1 and back).
	tr := New(in, out, 2, 0)
	tr.SetAccepting(0, true)
	tr.SetAccepting(1, true)
	a := in.MustSymbol("a")
	tr.AddTransition(0, a, 0, []automata.Symbol{out.MustSymbol("x")})
	tr.AddTransition(0, a, 1, []automata.Symbol{out.MustSymbol("y")})
	tr.AddTransition(1, a, 0, []automata.Symbol{out.MustSymbol("x")})
	tr.AddTransition(1, a, 1, []automata.Symbol{out.MustSymbol("y")})
	if tr.IsDeterministic() {
		t.Fatal("machine should be nondeterministic")
	}
	outs := tr.Transduce(in.MustParseString("a a"), 0)
	if len(outs) != 4 { // xx, xy, yx, yy
		t.Fatalf("got %d outputs, want 4: %v", len(outs), outs)
	}
	if lim := tr.Transduce(in.MustParseString("a a"), 2); len(lim) != 2 {
		t.Fatalf("limit ignored: %d outputs", len(lim))
	}
}

func TestCompleted(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x")
	tr := New(in, out, 1, 0)
	tr.SetAccepting(0, true)
	tr.AddTransition(0, in.MustSymbol("a"), 0, []automata.Symbol{out.MustSymbol("x")})
	// 'b' is missing: rejected.
	c := tr.Completed()
	if c.NumStates() != 2 {
		t.Fatalf("Completed has %d states, want 2", c.NumStates())
	}
	if _, ok := c.TransduceDet(in.MustParseString("a b a")); ok {
		t.Fatal("completed transducer must still reject strings with b")
	}
	if got, ok := c.TransduceDet(in.MustParseString("a a")); !ok || len(got) != 2 {
		t.Fatal("completed transducer changed accepted behavior")
	}
	for q := 0; q < c.NumStates(); q++ {
		for _, s := range in.Symbols() {
			if len(c.Succ(q, s)) != 1 {
				t.Fatal("completed transducer is not total-deterministic")
			}
		}
	}
}

// --- Constraint machinery ---

func allOutputs(ab *automata.Alphabet, maxLen int, fn func([]automata.Symbol)) {
	var rec func(s []automata.Symbol, depth int)
	rec = func(s []automata.Symbol, depth int) {
		fn(s)
		if depth == 0 {
			return
		}
		for _, sym := range ab.Symbols() {
			rec(append(s, sym), depth-1)
		}
	}
	rec(nil, maxLen)
}

func randomConstraint(ab *automata.Alphabet, rng *rand.Rand) Constraint {
	c := Constraint{Mode: ConstraintMode(rng.Intn(3))}
	plen := rng.Intn(3)
	for i := 0; i < plen; i++ {
		c.Prefix = append(c.Prefix, automata.Symbol(rng.Intn(ab.Size())))
	}
	if c.Mode != ExactOnly && rng.Intn(2) == 0 {
		c.Forbidden = map[automata.Symbol]bool{automata.Symbol(rng.Intn(ab.Size())): true}
	}
	return c
}

func TestConstraintAdmits(t *testing.T) {
	ab := automata.MustAlphabet("x", "y")
	x, y := ab.MustSymbol("x"), ab.MustSymbol("y")
	c := Constraint{Prefix: []automata.Symbol{x}, Forbidden: map[automata.Symbol]bool{y: true}, Mode: PrefixAndExtensions}
	cases := []struct {
		o    []automata.Symbol
		want bool
	}{
		{[]automata.Symbol{x}, true},
		{[]automata.Symbol{x, x}, true},
		{[]automata.Symbol{x, y}, false},
		{[]automata.Symbol{x, x, y}, true},
		{[]automata.Symbol{y}, false},
		{nil, false},
	}
	for _, cse := range cases {
		if got := c.Admits(cse.o); got != cse.want {
			t.Errorf("Admits(%v) = %v, want %v", cse.o, got, cse.want)
		}
	}
}

func TestChildrenPartitionProperty(t *testing.T) {
	// For random constraints c and answers o admitted by c, the children
	// must partition admits(c) \ {o}: every string up to length 4 is
	// admitted by exactly one child iff it is admitted by c and differs
	// from o.
	ab := automata.MustAlphabet("x", "y")
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		c := randomConstraint(ab, rng)
		// pick an admitted o of length ≤ 3
		var candidates [][]automata.Symbol
		allOutputs(ab, 3, func(s []automata.Symbol) {
			if c.Admits(s) {
				candidates = append(candidates, automata.CloneString(s))
			}
		})
		if len(candidates) == 0 {
			continue
		}
		o := candidates[rng.Intn(len(candidates))]
		kids := c.Children(o)
		allOutputs(ab, 4, func(s []automata.Symbol) {
			count := 0
			for _, k := range kids {
				if k.Admits(s) {
					count++
				}
			}
			want := 0
			if c.Admits(s) && !automata.EqualStrings(s, o) {
				want = 1
			}
			if count != want {
				t.Fatalf("constraint %v, answer %v: string %v admitted by %d children, want %d",
					c, o, s, count, want)
			}
		})
	}
}

// TestChildrenAllocLinear bounds the bytes one Children call allocates
// linearly in the answer length: the 2|o|+1 children share one copy of
// o instead of each copying its own prefix, which made a top-1 drain
// over a long stream allocate gigabytes in prefix copies.
func TestChildrenAllocLinear(t *testing.T) {
	const bytesPerSymbol = 2048
	for _, n := range []int{1000, 4000} {
		o := make([]automata.Symbol, n)
		for i := range o {
			o[i] = automata.Symbol(i % 3)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		kids := Unconstrained().Children(o)
		runtime.ReadMemStats(&after)
		if len(kids) != 2*n+1 {
			t.Fatalf("|o|=%d: %d children, want %d", n, len(kids), 2*n+1)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > bytesPerSymbol*uint64(n) {
			t.Fatalf("|o|=%d: Children allocated %d bytes (%d per symbol), want at most %d per symbol",
				n, got, got/uint64(n), bytesPerSymbol)
		}
	}
}

func TestConstrainAgreesWithAdmits(t *testing.T) {
	// The constrained transducer's language of outputs must be exactly the
	// admitted answers of the original. Checked exhaustively on short
	// inputs of the Figure 2 machine with random constraints.
	in, outAb, tr := figure2(t)
	rng := rand.New(rand.NewSource(5))
	var inputs [][]automata.Symbol
	var rec func(s []automata.Symbol, depth int)
	rec = func(s []automata.Symbol, depth int) {
		if len(s) > 0 {
			inputs = append(inputs, automata.CloneString(s))
		}
		if depth == 0 {
			return
		}
		for _, sym := range in.Symbols() {
			rec(append(s, sym), depth-1)
		}
	}
	rec(nil, 3)
	for trial := 0; trial < 40; trial++ {
		c := randomConstraint(outAb, rng)
		ct := tr.Constrain(c)
		for _, s := range inputs {
			orig, okO := tr.TransduceDet(s)
			got, okC := ct.TransduceDet(s)
			wantOK := okO && c.Admits(orig)
			if okC != wantOK {
				t.Fatalf("constraint %v input %v: constrained accept=%v want %v", c, s, okC, wantOK)
			}
			if okC && !automata.EqualStrings(got, orig) {
				t.Fatalf("constraint %v input %v: constrained output %v, original %v", c, s, got, orig)
			}
		}
	}
}

func TestQuickTrackerMatchesAdmits(t *testing.T) {
	// Property: running the tracker over an output string accepts iff the
	// constraint admits it.
	ab := automata.MustAlphabet("x", "y", "z")
	f := func(seed int64, raw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomConstraint(ab, rng)
		tr := c.Tracker()
		o := make([]automata.Symbol, 0, len(raw))
		for _, b := range raw {
			o = append(o, automata.Symbol(int(b)%ab.Size()))
		}
		st, ok := tr.StepString(tr.Start(), o)
		got := ok && tr.Accepting(st)
		return got == c.Admits(o)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestConstraintDFAMatchesAdmits(t *testing.T) {
	ab := automata.MustAlphabet("x", "y")
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		c := randomConstraint(ab, rng)
		d := c.DFA(ab)
		allOutputs(ab, 5, func(o []automata.Symbol) {
			if got, want := d.Accepts(o), c.Admits(o); got != want {
				t.Fatalf("constraint %v: DFA accepts(%v)=%v, Admits=%v", c, o, got, want)
			}
		})
	}
	// Unconstrained admits everything.
	u := Unconstrained()
	du := u.DFA(ab)
	allOutputs(ab, 4, func(o []automata.Symbol) {
		if !u.Admits(o) || !du.Accepts(o) {
			t.Fatalf("Unconstrained must admit %v", o)
		}
	})
}

func TestConstraintString(t *testing.T) {
	ab := automata.MustAlphabet("x", "y")
	x := ab.MustSymbol("x")
	for _, c := range []Constraint{
		{Prefix: []automata.Symbol{x}, Mode: ExactOnly},
		{Prefix: []automata.Symbol{x}, Forbidden: map[automata.Symbol]bool{x: true}, Mode: ExtensionsOnly},
		Unconstrained(),
	} {
		if c.String() == "" {
			t.Fatal("empty String rendering")
		}
	}
}

func TestFromNFA(t *testing.T) {
	ab := automata.MustAlphabet("a")
	out := automata.MustAlphabet("x")
	n := automata.NewNFA(ab, 2, 0)
	n.AddTransition(0, 0, 1)
	n.SetAccepting(1, true)
	tr := FromNFA(n, out)
	if k, ok := tr.UniformK(); !ok || k != 0 {
		t.Fatalf("FromNFA should be 0-uniform, got %d,%v", k, ok)
	}
	if o, ok := tr.TransduceDet(ab.MustParseString("a")); !ok || len(o) != 0 {
		t.Fatal("FromNFA acceptance test failed")
	}
	// Epsilon NFAs are rejected.
	e := automata.NewNFA(ab, 2, 0)
	e.AddEps(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("FromNFA should panic on epsilon NFA")
		}
	}()
	FromNFA(e, out)
}

func TestAccessorsAndDot(t *testing.T) {
	in, _, tr := figure2(t)
	if tr.Start() != 0 {
		t.Fatalf("Start = %d", tr.Start())
	}
	if tr.Accepting(0) || !tr.Accepting(1) {
		t.Fatal("Accepting accessor wrong")
	}
	var b strings.Builder
	if err := tr.WriteDot(&b, "fig2"); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{"doublecircle", "la:ε", "_start -> q0"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q", want)
		}
	}
	_ = in
}
