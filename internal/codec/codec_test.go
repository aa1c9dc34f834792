package codec

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/hmm"
	"markovseq/internal/paperex"
)

func TestSequenceRoundTrip(t *testing.T) {
	nodes := paperex.Nodes()
	m := paperex.Figure1(nodes)
	var buf bytes.Buffer
	if err := EncodeSequence(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeSequence(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != m.Len() {
		t.Fatalf("length %d vs %d", m2.Len(), m.Len())
	}
	// Probabilities survive the round trip.
	m.Enumerate(func(s []automata.Symbol, p float64) bool {
		// Symbols may be renumbered; map by name.
		s2 := make([]automata.Symbol, len(s))
		for i, sym := range s {
			s2[i] = m2.Nodes.MustSymbol(m.Nodes.Name(sym))
		}
		if got := m2.Prob(s2); math.Abs(got-p) > 1e-12 {
			t.Fatalf("world %v: %v vs %v", s, got, p)
		}
		return true
	})
}

func TestTransducerRoundTrip(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	tr := paperex.Figure2(nodes, outs)
	var buf bytes.Buffer
	if err := EncodeTransducer(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := DecodeTransducer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range paperex.Table1() {
		world := nodes.MustParseString(row.World)
		w2 := make([]automata.Symbol, len(world))
		for i, s := range world {
			w2[i] = tr2.In.MustSymbol(nodes.Name(s))
		}
		o1, ok1 := tr.TransduceDet(world)
		o2, ok2 := tr2.TransduceDet(w2)
		if ok1 != ok2 || len(o1) != len(o2) {
			t.Fatalf("row %s: round-trip behavior differs", row.Name)
		}
		for i := range o1 {
			if outs.Name(o1[i]) != tr2.Out.Name(o2[i]) {
				t.Fatalf("row %s: outputs differ", row.Name)
			}
		}
	}
}

func TestSProjectorSpec(t *testing.T) {
	spec := SProjectorJSON{
		Alphabet: []string{"a", "b", "c"},
		Prefix:   ".*",
		Pattern:  "ab*",
		Suffix:   ".*",
	}
	var buf bytes.Buffer
	if err := EncodeSProjectorSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	p, ab, err := DecodeSProjector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Transduces(ab.MustParseString("c a b c"), ab.MustParseString("a b")) {
		t.Fatal("decoded projector misbehaves")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		`{"nodes":["a","a"]}`,
		`{"nodes":["a"],"initial":{"zz":1},"transitions":[]}`,
		`{"nodes":["a"],"initial":{"a":0.5},"transitions":[]}`, // sub-stochastic
		`not json`,
	}
	for _, c := range cases {
		if _, err := DecodeSequence(strings.NewReader(c)); err == nil {
			t.Errorf("DecodeSequence(%q) should fail", c)
		}
	}
	bad := []string{
		`{"input":["a"],"output":["x"],"states":0,"start":0}`,
		`{"input":["a"],"output":["x"],"states":1,"start":0,"accepting":[5]}`,
		`{"input":["a"],"output":["x"],"states":1,"start":0,"transitions":[{"from":0,"symbol":"zz","to":0}]}`,
		`{"input":["a"],"output":["x"],"states":1,"start":0,"transitions":[{"from":0,"symbol":"a","to":0,"emit":["zz"]}]}`,
		`{"input":["a"],"output":["x"],"states":4611686018427387904,"start":0}`, // makeslice would panic
		`{"input":["a"],"output":["x"],"states":1000000000,"start":0}`,          // ~25 GB of state tables
	}
	for _, c := range bad {
		if _, err := DecodeTransducer(strings.NewReader(c)); err == nil {
			t.Errorf("DecodeTransducer(%q) should fail", c)
		}
	}
	if _, _, err := DecodeSProjector(strings.NewReader(`{"alphabet":["a"],"prefix":"(","pattern":"a","suffix":".*"}`)); err == nil {
		t.Error("bad regex in spec should fail")
	}
}

func TestHMMRoundTrip(t *testing.T) {
	states := automata.MustAlphabet("s1", "s2")
	obs := automata.MustAlphabet("o1", "o2", "o3")
	h := hmm.New(states, obs)
	h.Initial[0] = 0.25
	h.Initial[1] = 0.75
	h.Trans[0][0], h.Trans[0][1] = 0.5, 0.5
	h.Trans[1][0], h.Trans[1][1] = 0.1, 0.9
	h.Emit[0][0], h.Emit[0][2] = 0.4, 0.6
	h.Emit[1][1] = 1
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeHMM(&buf, h); err != nil {
		t.Fatal(err)
	}
	h2, err := DecodeHMM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Conditioning on the same observations gives the same sequence.
	seq := []automata.Symbol{obs.MustSymbol("o2"), obs.MustSymbol("o1")}
	m1, err := h.Condition(seq)
	if err != nil {
		t.Fatal(err)
	}
	obsNames := []string{"o2", "o1"}
	seq2 := make([]automata.Symbol, len(obsNames))
	for i, n := range obsNames {
		seq2[i] = h2.Obs.MustSymbol(n)
	}
	m2, err := h2.Condition(seq2)
	if err != nil {
		t.Fatal(err)
	}
	for s := range m1.Initial {
		if math.Abs(m1.Initial[s]-m2.Initial[s]) > 1e-12 {
			t.Fatal("round-tripped HMM conditions differently")
		}
	}
}

func TestDecodeHMMErrors(t *testing.T) {
	bad := []string{
		`not json`,
		`{"states":["a","a"],"observations":["x"]}`,
		`{"states":["a"],"observations":["x"],"initial":{"zz":1}}`,
		`{"states":["a"],"observations":["x"],"initial":{"a":0.5},"transitions":{"a":{"a":1}},"emissions":{"a":{"x":1}}}`,
	}
	for _, c := range bad {
		if _, err := DecodeHMM(strings.NewReader(c)); err == nil {
			t.Errorf("DecodeHMM(%q) should fail", c)
		}
	}
}
