package sproj

import (
	"math"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/regex"
	"markovseq/internal/transducer"
)

// randomSProjector builds an s-projector from random small DFAs.
func randomSProjector(ab *automata.Alphabet, rng *rand.Rand) *SProjector {
	mk := func(n int) *automata.DFA {
		d := automata.NewDFA(ab, n, rng.Intn(n))
		for q := 0; q < n; q++ {
			d.SetAccepting(q, rng.Intn(2) == 0)
			for _, s := range ab.Symbols() {
				d.SetTransition(q, s, rng.Intn(n))
			}
		}
		return d
	}
	p, err := New(mk(1+rng.Intn(3)), mk(1+rng.Intn(3)), mk(1+rng.Intn(3)))
	if err != nil {
		panic(err)
	}
	return p
}

func TestSimpleConstructor(t *testing.T) {
	ab := automata.Chars("ab")
	a := regex.MustCompileDFA("ab*", ab)
	p := Simple(a)
	if !p.B.IsUniversal() || !p.E.IsUniversal() {
		t.Fatal("Simple must use universal prefix/suffix constraints")
	}
	if !p.Transduces(ab.MustParseString("b a b b a"), ab.MustParseString("a b b")) {
		t.Fatal("simple projector should match abb inside babba")
	}
}

func TestNewValidatesAlphabets(t *testing.T) {
	ab1 := automata.Chars("ab")
	ab2 := automata.Chars("ab")
	if _, err := New(automata.Universal(ab1), automata.Universal(ab2), automata.Universal(ab1)); err == nil {
		t.Fatal("mismatched alphabets should be rejected")
	}
}

// TestToTransducerAgainstSpec: the converted transducer transduces s into
// o iff the s-projector does, checked exhaustively on short strings for
// random projectors.
func TestToTransducerAgainstSpec(t *testing.T) {
	ab := automata.Chars("ab")
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		p := randomSProjector(ab, rng)
		tr := p.ToTransducer()
		var inputs [][]automata.Symbol
		var rec func(s []automata.Symbol, d int)
		rec = func(s []automata.Symbol, d int) {
			if len(s) > 0 {
				inputs = append(inputs, automata.CloneString(s))
			}
			if d == 0 {
				return
			}
			for _, sym := range ab.Symbols() {
				rec(append(s, sym), d-1)
			}
		}
		rec(nil, 4)
		for _, s := range inputs {
			outs := tr.Transduce(s, 0)
			got := map[string]bool{}
			for _, o := range outs {
				got[automata.StringKey(o)] = true
			}
			// Spec: every substring o of s (including ε) with a valid split.
			want := map[string]bool{}
			for i := 0; i <= len(s); i++ {
				for j := i; j <= len(s); j++ {
					o := s[i:j]
					if p.Transduces(s, o) {
						// Verify this specific split exists too.
					}
					if p.A.Accepts(o) && p.B.Accepts(s[:i]) && p.E.Accepts(s[j:]) {
						want[automata.StringKey(o)] = true
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d input %v: transducer outputs %v, spec %v", trial, s, got, want)
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("trial %d input %v: missing output %v", trial, s, k)
				}
			}
		}
	}
}

// TestConfidenceAgainstBruteForce validates the Theorem 5.5 DP against
// possible-worlds enumeration on random projectors and sequences.
func TestConfidenceAgainstBruteForce(t *testing.T) {
	ab := automata.Chars("ab")
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		p := randomSProjector(ab, rng)
		m := markov.Random(ab, 2+rng.Intn(4), 0.7, rng)
		// Collect the brute-force answer confidences.
		want := map[string]float64{}
		m.Enumerate(func(s []automata.Symbol, pr float64) bool {
			seen := map[string]bool{}
			for i := 0; i <= len(s); i++ {
				for j := i; j <= len(s); j++ {
					o := s[i:j]
					k := automata.StringKey(o)
					if seen[k] {
						continue
					}
					if p.A.Accepts(o) && p.B.Accepts(s[:i]) && p.E.Accepts(s[j:]) {
						seen[k] = true
						want[k] += pr
					}
				}
			}
			return true
		})
		for k, w := range want {
			o := parseKey(k)
			if got := p.Confidence(m, o); math.Abs(got-w) > 1e-9 {
				t.Fatalf("trial %d: Confidence(%v) = %v, want %v", trial, o, got, w)
			}
		}
		// Non-answers have confidence 0.
		long := make([]automata.Symbol, m.Len()+1)
		if got := p.Confidence(m, long); got != 0 {
			t.Fatalf("trial %d: overlong output has confidence %v", trial, got)
		}
	}
}

// TestIndexedConfidenceAgainstBruteForce validates Theorem 5.8.
func TestIndexedConfidenceAgainstBruteForce(t *testing.T) {
	ab := automata.Chars("ab")
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		p := randomSProjector(ab, rng)
		m := markov.Random(ab, 2+rng.Intn(4), 0.7, rng)
		type ans struct {
			key string
			i   int
		}
		want := map[ans]float64{}
		m.Enumerate(func(s []automata.Symbol, pr float64) bool {
			for i := 0; i <= len(s); i++ {
				for j := i; j <= len(s); j++ {
					o := s[i:j]
					if p.A.Accepts(o) && p.B.Accepts(s[:i]) && p.E.Accepts(s[j:]) {
						want[ans{automata.StringKey(o), i + 1}] += pr
					}
				}
			}
			return true
		})
		for a, w := range want {
			o := parseKey(a.key)
			if got := p.IndexedConfidence(m, o, a.i); math.Abs(got-w) > 1e-9 {
				t.Fatalf("trial %d: IndexedConfidence(%v, %d) = %v, want %v", trial, o, a.i, got, w)
			}
		}
		// Out-of-range and impossible answers.
		if got := p.IndexedConfidence(m, nil, m.Len()+2); got != 0 {
			t.Fatalf("trial %d: out-of-range index has confidence %v", trial, got)
		}
	}
}

// TestIndexedEnumeration validates Theorem 5.7: the enumeration yields
// exactly the indexed answers, in non-increasing confidence, each once,
// with correct confidences.
func TestIndexedEnumeration(t *testing.T) {
	ab := automata.Chars("ab")
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		p := randomSProjector(ab, rng)
		m := markov.Random(ab, 2+rng.Intn(3), 0.7, rng)
		type ans struct {
			key string
			i   int
		}
		want := map[ans]float64{}
		m.Enumerate(func(s []automata.Symbol, pr float64) bool {
			for i := 0; i <= len(s); i++ {
				for j := i; j <= len(s); j++ {
					o := s[i:j]
					if p.A.Accepts(o) && p.B.Accepts(s[:i]) && p.E.Accepts(s[j:]) {
						want[ans{automata.StringKey(o), i + 1}] += pr
					}
				}
			}
			return true
		})
		e, err := p.EnumerateIndexed(m)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[ans]bool{}
		prev := math.Inf(1)
		for {
			a, ok := e.Next()
			if !ok {
				break
			}
			key := ans{automata.StringKey(a.Output), a.Index}
			if seen[key] {
				t.Fatalf("trial %d: duplicate indexed answer (%v,%d)", trial, a.Output, a.Index)
			}
			seen[key] = true
			w, isAns := want[key]
			if !isAns {
				t.Fatalf("trial %d: spurious indexed answer (%v,%d) conf %v", trial, a.Output, a.Index, a.Conf)
			}
			if math.Abs(a.Conf-w) > 1e-9 {
				t.Fatalf("trial %d: conf(%v,%d) = %v, want %v", trial, a.Output, a.Index, a.Conf, w)
			}
			if a.Conf > prev+1e-9 {
				t.Fatalf("trial %d: confidences not non-increasing", trial)
			}
			prev = a.Conf
		}
		if len(seen) != len(want) {
			t.Fatalf("trial %d: enumerated %d indexed answers, want %d", trial, len(seen), len(want))
		}
	}
}

// TestImaxEnumeration validates Lemma 5.10 (each string once, decreasing
// I_max) and Proposition 5.9 (I_max ≤ conf ≤ n·I_max).
func TestImaxEnumeration(t *testing.T) {
	ab := automata.Chars("ab")
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		p := randomSProjector(ab, rng)
		n := 2 + rng.Intn(3)
		m := markov.Random(ab, n, 0.7, rng)
		// Brute-force string answers and confidences.
		conf := map[string]float64{}
		m.Enumerate(func(s []automata.Symbol, pr float64) bool {
			seen := map[string]bool{}
			for i := 0; i <= len(s); i++ {
				for j := i; j <= len(s); j++ {
					o := s[i:j]
					k := automata.StringKey(o)
					if seen[k] {
						continue
					}
					if p.A.Accepts(o) && p.B.Accepts(s[:i]) && p.E.Accepts(s[j:]) {
						seen[k] = true
						conf[k] += pr
					}
				}
			}
			return true
		})
		e := p.EnumerateImax(m)
		seen := map[string]bool{}
		prev := math.Inf(1)
		for {
			a, ok := e.Next()
			if !ok {
				break
			}
			k := automata.StringKey(a.Output)
			if seen[k] {
				t.Fatalf("trial %d: duplicate string answer %v", trial, a.Output)
			}
			seen[k] = true
			c, isAns := conf[k]
			if !isAns {
				t.Fatalf("trial %d: spurious string answer %v", trial, a.Output)
			}
			if a.Imax > prev+1e-9 {
				t.Fatalf("trial %d: I_max not non-increasing", trial)
			}
			prev = a.Imax
			// Proposition 5.9.
			if a.Imax > c+1e-9 || c > float64(n)*a.Imax+1e-9 {
				t.Fatalf("trial %d: Proposition 5.9 violated: Imax=%v conf=%v n=%d", trial, a.Imax, c, n)
			}
			// Cross-check I_max value.
			if got := p.Imax(m, a.Output); math.Abs(got-a.Imax) > 1e-9 {
				t.Fatalf("trial %d: Imax mismatch %v vs %v", trial, got, a.Imax)
			}
		}
		if len(seen) != len(conf) {
			t.Fatalf("trial %d: enumerated %d strings, want %d", trial, len(seen), len(conf))
		}
	}
}

// TestExample51Style runs the paper's Example 5.1 extraction pattern on a
// character alphabet: B = ".*Name:", A = "[a-zA-Z]+", E = "\s.*".
func TestExample51Style(t *testing.T) {
	ab := automata.Chars("Name:Hilryb ")
	b := regex.MustCompileDFA(".*Name:", ab)
	a := regex.MustCompileDFA("[a-zA-Z]+", ab)
	e := regex.MustCompileDFA("\\s.*", ab)
	p, err := New(b, a, e)
	if err != nil {
		t.Fatal(err)
	}
	text := "be Name:Hillary a"
	var s []automata.Symbol
	for _, r := range text {
		s = append(s, ab.MustSymbol(string(r)))
	}
	var name []automata.Symbol
	for _, r := range "Hillary" {
		name = append(name, ab.MustSymbol(string(r)))
	}
	if !p.Transduces(s, name) {
		t.Fatal("Example 5.1 projector should extract Hillary")
	}
	occ := p.Occurrences(s, name)
	if len(occ) != 1 || occ[0] != 9 {
		t.Fatalf("occurrences = %v, want [9]", occ)
	}
}

func TestTopIndexedWithConstraint(t *testing.T) {
	ab := automata.Chars("ab")
	p := Simple(regex.MustCompileDFA("(a|b)*", ab))
	rng := rand.New(rand.NewSource(11))
	m := markov.Random(ab, 4, 0.8, rng)
	// Constrain outputs to start with 'b'.
	c := transducer.Constraint{Prefix: []automata.Symbol{ab.MustSymbol("b")}, Mode: transducer.PrefixAndExtensions}
	top, ok := p.TopIndexed(m, c)
	if !ok {
		t.Skip("no b-prefixed answers in this random instance")
	}
	if len(top.Output) == 0 || top.Output[0] != ab.MustSymbol("b") {
		t.Fatalf("constrained top answer %v does not start with b", top.Output)
	}
	// It must be the max over all admitted (o,i).
	best := 0.0
	m.Enumerate(func(s []automata.Symbol, pr float64) bool {
		return true
	})
	// Exhaustive check via indexed enumeration without constraint.
	e, _ := p.EnumerateIndexed(m)
	for {
		a, ok := e.Next()
		if !ok {
			break
		}
		if c.Admits(a.Output) && a.Conf > best {
			best = a.Conf
		}
	}
	if math.Abs(best-top.Conf) > 1e-9 {
		t.Fatalf("TopIndexed conf %v, exhaustive best %v", top.Conf, best)
	}
}

func parseKey(key string) []automata.Symbol {
	return automata.ParseKey(key)
}

// TestIndexedEnumerationAtScale cross-checks the Theorem 5.7 enumeration
// beyond brute-force reach: at n = 30, every one of the first 50 answers
// must (a) be in non-increasing confidence order and (b) agree with an
// independent recomputation via the Theorem 5.8 DP.
func TestIndexedEnumerationAtScale(t *testing.T) {
	ab := automata.Chars("abc")
	rng := rand.New(rand.NewSource(1234))
	p := randomSProjector(ab, rng)
	m := markov.Random(ab, 30, 0.8, rng)
	e, err := p.EnumerateIndexed(m)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for k := 0; k < 50; k++ {
		a, ok := e.Next()
		if !ok {
			break
		}
		if a.Conf > prev+1e-9 {
			t.Fatalf("answer %d: order violated (%v after %v)", k, a.Conf, prev)
		}
		prev = a.Conf
		if want := p.IndexedConfidence(m, a.Output, a.Index); math.Abs(a.Conf-want)/math.Max(want, 1e-300) > 1e-6 {
			t.Fatalf("answer %d: enumerated conf %v, recomputed %v", k, a.Conf, want)
		}
	}
}
