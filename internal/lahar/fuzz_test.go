package lahar

import (
	"math/rand"
	"reflect"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzSlidingWindows is the serving-path differential for sliding
// windows. The input decodes into a small random instance: a Markov
// sequence over 2 or 3 nodes with n ≤ 40 positions (so windows fall on
// both sides of kernel.BoundsMinN) and some zero transitions, a 1–3-state
// deterministic transducer emitting at most one of two output symbols
// per transition, with a random accepting set and missing transitions so
// that some windows are answerless, and a window, stride, k and watcher
// prefix length. Then:
//
//   - serial SlidingTopK equals the bind-per-window reference bit for bit;
//   - the parallel sweep equals the serial one;
//   - a watcher subscribed to a prefix and fed the rest one event per
//     AppendEvents delivers exactly SlidingTopK's windows;
//   - a window's Top is nil exactly when the unranked enumeration of that
//     window (Theorem 4.1, an independent nonemptiness path) is empty.
func FuzzSlidingWindows(f *testing.F) {
	// Byte layout: |Σ|, n, density, two seed bytes, |Q|, accepting mask,
	// |Q|·|Σ| transition bytes (low two bits: emit x, emit y, emit
	// nothing, no transition; the rest: target state), window, stride,
	// k, watcher prefix.
	f.Add([]byte{0, 11, 5, 1, 2, 1, 0b01, 4, 1, 2, 7, 7, 0, 1, 9})
	// The whole stream as one window, and a watcher on a 1-position
	// prefix.
	f.Add([]byte{0, 39, 6, 0, 9, 1, 0b11, 4, 1, 2, 0, 39, 3, 3, 0})
	// Answerless windows at window 8, below kernel.BoundsMinN: over a
	// nearly deterministic sequence, only state 2 accepts, reached on
	// "c" then "a" (16 of 23 windows answerless).
	f.Add([]byte{1, 29, 0, 4, 2, 2, 0b100, 2, 2, 6, 9, 2, 6, 8, 10, 10, 7, 0, 2, 12})
	// Answerless windows at window 32, on the pruned side: state 1
	// accepts after an odd number of "b" (7 of 9 windows answerless).
	f.Add([]byte{0, 39, 0, 7, 0, 1, 0b10, 2, 5, 6, 2, 31, 0, 1, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		testutil.CheckLeaks(t)
		in := fuzzBytes(data)
		sigma := 2 + in.next()%2
		nodes := automata.MustAlphabet([]string{"a", "b", "c"}[:sigma]...)
		n := 1 + in.next()%40
		density := float64(1+in.next()%7) / 8
		seed := int64(in.next()<<8 | in.next())
		m := markov.Random(nodes, n, density, rand.New(rand.NewSource(seed)))

		states := 1 + in.next()%3
		tr := transducer.New(nodes, automata.MustAlphabet("x", "y"), states, 0)
		accepting := in.next()
		for q := 0; q < states; q++ {
			tr.SetAccepting(q, accepting>>q&1 == 1)
			for s := 0; s < sigma; s++ {
				e := in.next()
				var out []automata.Symbol
				switch e % 4 {
				case 0, 1:
					out = []automata.Symbol{automata.Symbol(e % 4)}
				case 3:
					continue // no transition
				}
				tr.AddTransition(q, automata.Symbol(s), e/4%states, out)
			}
		}
		window := 1 + in.next()%n
		stride := 1 + in.next()%4
		k := 1 + in.next()%4
		p := 1 + in.next()%n

		mk := func(m *markov.Sequence, opts ...Option) *DB {
			db := New(opts...)
			if err := db.PutStream("s", m); err != nil {
				t.Fatal(err)
			}
			db.RegisterTransducer("q", tr)
			return db
		}
		db := mk(m)
		got, err := db.SlidingTopK("s", "q", window, stride, k)
		if err != nil {
			t.Fatalf("n=%d w=%d s=%d k=%d: %v", n, window, stride, k, err)
		}
		if want := referenceSliding(t, db, "s", "q", window, stride, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d w=%d s=%d k=%d: sweep diverges from the reference\ngot  %+v\nwant %+v",
				n, window, stride, k, got, want)
		}
		par, err := mk(m, WithParallelWindows(true), WithWorkers(2)).SlidingTopK("s", "q", window, stride, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, got) {
			t.Fatalf("n=%d w=%d s=%d k=%d: parallel sweep diverges from serial", n, window, stride, k)
		}

		watchMatchesSliding(t, appendWorkload{full: m, mk: mk}, p, window, stride, k)
		_, pr, err := db.lookup("s", "q")
		if err != nil {
			t.Fatal(err)
		}
		wr := m.Windower()
		for _, w := range got {
			eng, err := pr.BindValidated(wr.Window(w.Start, w.End))
			if err != nil {
				t.Fatal(err)
			}
			if answerless := len(eng.Enumerate(1)) == 0; answerless != (w.Top == nil) {
				t.Fatalf("n=%d w=%d s=%d: window [%d,%d] has Top %v but unranked enumeration answerless=%v",
					n, window, stride, w.Start, w.End, w.Top, answerless)
			}
		}
	})
}
