package ranked

import (
	"context"
	"math/rand"
	"testing"

	"markovseq/internal/fuzzinput"
	"markovseq/internal/hardness"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// FuzzPrunedMatchesExhaustive is the differential of the pruned sweep
// against the exhaustive one, at every length: the input decodes into
// an instance, either a small random one (fuzzinput.Instance) or a flat
// Max-3-DNF reduction, whose answers all tie, and a depth k. Then:
//
//   - a pruned and an exhaustive enumerator, each forced whatever the
//     length, drain the same k answers, outputs and score bits in order;
//   - the Sweeper's TopK equals those k answers.
//
// Byte layout: a selector (odd: Max-3-DNF), k, then the instance — the
// fuzzinput.Instance layout, or a seed byte and an amplification byte
// (1–3 copies of the reduction's sequence).
func FuzzPrunedMatchesExhaustive(f *testing.F) {
	f.Add([]byte{0, 5, 0, 11, 5, 1, 2, 1, 0b01, 4, 1, 2, 7})
	// n = 40, every state accepting, k = 16.
	f.Add([]byte{0, 15, 1, 39, 6, 0, 9, 2, 0b11, 4, 1, 2, 0, 5, 8})
	// Answerless: nothing accepts.
	f.Add([]byte{0, 3, 0, 19, 4, 3, 1, 1, 0b00, 4, 1, 2, 7})
	// The flat Max-3-DNF reduction, once and thrice.
	f.Add([]byte{1, 7, 100, 0})
	f.Add([]byte{1, 12, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzinput.Bytes(data)
		flat := in.Next()%2 == 1
		k := 1 + in.Next()%16
		var tr *transducer.Transducer
		var m *markov.Sequence
		if flat {
			hi := hardness.NewMealyInstance(hardness.RandomMax3DNF(4, 3, rand.New(rand.NewSource(int64(in.Next())))))
			tr, m = hi.T, hi.Amplify(1+in.Next()%3)
		} else {
			m, tr = fuzzinput.Instance(&in)
		}
		want := drainAnswers(exhaustive(tr, m).Next, k)
		got := drainAnswers(pruned(tr, m).Next, k)
		assertSameAnswerSequence(t, "pruned", got, want)
		top, err := NewSweeper(tr).TopK(context.Background(), m, k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswerSequence(t, "sweeper", top, want)
	})
}
