package markov_test

import (
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/rfid"
)

// TestValidateAllocatesNothing: a valid sequence validates without
// formatting a single row label — every PutStream and AppendEvents pays
// for Validate, so it allocates nothing on an RFID trace.
func TestValidateAllocatesNothing(t *testing.T) {
	h := rfid.BuildHMM(rfid.Hospital(4, 2), rfid.DefaultNoise)
	trc, err := rfid.Simulate(h, 40, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := trc.Seq.Validate(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = trc.Seq.Validate() }); allocs != 0 {
		t.Fatalf("Validate of a valid %d-position trace allocated %v times, want 0", trc.Seq.Len(), allocs)
	}
}

// TestRowErrorText pins the error a bad row produces: the row's label,
// then what is wrong with it, from Validate and Extended alike.
func TestRowErrorText(t *testing.T) {
	ab := automata.MustAlphabet("a", "b")
	a, b := ab.MustSymbol("a"), ab.MustSymbol("b")
	valid := func() *markov.Sequence {
		m := markov.New(ab, 4)
		m.SetInitial(a, 1)
		for i := 1; i < 4; i++ {
			m.SetTrans(i, a, a, 1)
			m.SetTrans(i, b, b, 1)
		}
		return m
	}
	for _, tc := range []struct {
		name string
		bad  func(m *markov.Sequence)
		want string
	}{
		{"initial", func(m *markov.Sequence) { m.SetInitial(b, 0.5) }, "markov: initial distribution sums to 1.5, want 1"},
		{"sum", func(m *markov.Sequence) { m.SetTrans(3, b, a, 0.5); m.SetTrans(3, b, b, 0.4) }, "markov: transition 3 row b sums to 0.9, want 1"},
		{"negative", func(m *markov.Sequence) { m.SetTrans(2, a, b, -0.25) }, "markov: transition 2 row a has invalid probability -0.25"},
	} {
		m := valid()
		tc.bad(m)
		if err := m.Validate(); err == nil || err.Error() != tc.want {
			t.Fatalf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
	_, err := valid().Extended([][][]float64{{{0.5, 0.4}, {0, 1}}})
	if want := "markov: appended transition 4 row a sums to 0.9, want 1"; err == nil || err.Error() != want {
		t.Fatalf("Extended = %v, want %q", err, want)
	}
}
