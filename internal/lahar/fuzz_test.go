package lahar

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"markovseq/internal/fuzzinput"
	"markovseq/internal/markov"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

// fuzzStore returns a factory stamping a sequence (stream "s") and tr
// (query "q") into a fresh store.
func fuzzStore(t *testing.T, tr *transducer.Transducer) func(m *markov.Sequence, opts ...Option) *DB {
	return func(m *markov.Sequence, opts ...Option) *DB {
		db := New(opts...)
		if err := db.PutStream("s", m); err != nil {
			t.Fatal(err)
		}
		db.RegisterTransducer("q", tr)
		return db
	}
}

// FuzzSlidingWindows is the serving-path differential for sliding
// windows. The input decodes into a small random instance (see
// fuzzinput.Instance) and a window, stride, k and watcher prefix length.
// Then:
//
//   - serial SlidingTopK equals the bind-per-window reference bit for bit;
//   - the parallel sweep equals the serial one;
//   - a watcher subscribed to a prefix and fed the rest one event per
//     AppendEvents delivers exactly SlidingTopK's windows;
//   - a window's Top is nil exactly when the unranked enumeration of that
//     window (Theorem 4.1, an independent nonemptiness path) is empty.
func FuzzSlidingWindows(f *testing.F) {
	// Byte layout: the instance (see fuzzinput.Instance), then window, stride,
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
		in := fuzzinput.Bytes(data)
		m, tr := fuzzinput.Instance(&in)
		n := m.Len()
		window := 1 + in.Next()%n
		stride := 1 + in.Next()%4
		k := 1 + in.Next()%4
		p := 1 + in.Next()%n

		mk := fuzzStore(t, tr)
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

// FuzzAppendTopK is the serving-path differential for ranked answers
// kept fresh across appends. The input decodes into a small random
// instance (see fuzzinput.Instance), a prefix length p, k ∈ [1, 4], a flag
// that flattens the rows of the first four positions to uniform over
// their support (so exact E_max ties, and k boundaries that split a tie
// class, are common), and the call to cancel. A store holding the p-position prefix
// drains TopK(k); then the rest of the sequence arrives one event per
// AppendEvents, each followed by TopK(1) and TopK(k), append-rank's
// request shape, so every carry starts from a drained tree and every
// TopK(k) extends a partly drained one. Then:
//
//   - every list matches a reference store built from scratch over the
//     same prefix: bit-identical scores rank by rank, set-identical tie
//     classes (topKThroughTies, assertTopKMatches);
//   - TopK(1) is the head of the TopK(k) that follows it;
//   - the chosen call first runs once on an already-cancelled context,
//     which returns context.Canceled with a ranked prefix of the
//     reference or the whole answer, and the live call after it still
//     matches.
func FuzzAppendTopK(f *testing.F) {
	// Byte layout: the instance (see fuzzinput.Instance), then prefix length,
	// k, flatten flag, cancelled call.
	f.Add([]byte{0, 11, 5, 1, 2, 1, 0b01, 4, 1, 2, 7, 3, 2, 0, 3})
	// A long append run from a 1-position prefix, cancelling a TopK(1).
	f.Add([]byte{0, 39, 6, 0, 9, 1, 0b11, 4, 1, 2, 0, 0, 3, 0, 17})
	// Only state 2 accepts, reached on "c" then "a": 13 of the 27
	// lengths are answerless.
	f.Add([]byte{1, 29, 0, 4, 2, 2, 0b100, 2, 2, 6, 9, 2, 6, 8, 10, 10, 3, 2, 0, 5})
	// Answerless throughout: nothing accepts.
	f.Add([]byte{0, 19, 4, 3, 1, 1, 0b00, 4, 1, 2, 7, 5, 3, 0, 2})
	// Flattened rows: at every length k splits a tie class (19 lengths
	// at |Σ| = 2, 14 at |Σ| = 3).
	f.Add([]byte{0, 24, 5, 2, 1, 1, 0b11, 4, 1, 2, 7, 6, 1, 1, 4})
	f.Add([]byte{1, 17, 5, 5, 5, 2, 0b111, 0, 5, 2, 1, 4, 8, 4, 6, 1, 4, 3, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		testutil.CheckLeaks(t)
		in := fuzzinput.Bytes(data)
		full, tr := fuzzinput.Instance(&in)
		n := full.Len()
		p := 1 + in.Next()%n
		k := 1 + in.Next()%4
		if in.Next()%2 == 1 {
			// Only the first flatPositions positions: a tie class then
			// holds at most |Σ|^flatPositions answers, so the reference's
			// drain through the last tied class stays short.
			const flatPositions = 4
			trans := full.Trans[:min(flatPositions-1, len(full.Trans))]
			for _, row := range append([][]float64{full.Initial}, slices.Concat(trans...)...) {
				support := 0
				for _, v := range row {
					if v > 0 {
						support++
					}
				}
				for i, v := range row {
					if v > 0 {
						row[i] = 1 / float64(support)
					}
				}
			}
		}
		calls := 1 + 2*(n-p)
		cancelAt := in.Next() % calls

		mk := fuzzStore(t, tr)
		db := mk(full.Window(1, p))
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		call := 0
		// topK runs call number call, with a cancelled rehearsal first
		// when it is the chosen one, and checks it against want.
		topK := func(kk int, want []Result, label string) []Result {
			t.Helper()
			if call == cancelAt {
				got, err := db.TopKCtx(cancelled, "s", "q", kk)
				switch {
				case err == nil:
					assertTopKMatches(t, label+", cancelled", got, want, kk)
				case !errors.Is(err, context.Canceled):
					t.Fatalf("%s, cancelled: %v", label, err)
				case len(got) > 0:
					assertTopKMatches(t, label+", cancelled prefix", got, want, len(got))
				}
			}
			call++
			got, err := db.TopK("s", "q", kk)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertTopKMatches(t, label, got, want, kk)
			return got
		}
		topK(k, topKThroughTies(t, mk(full.Window(1, p)), "s", "q", k), fmt.Sprintf("n=%d p=%d k=%d warm", n, p, k))
		for L := p; L < n; L++ {
			if _, err := db.AppendEvents("s", eventsOf(full, L, L+1)); err != nil {
				t.Fatalf("append at %d: %v", L, err)
			}
			want := topKThroughTies(t, mk(full.Window(1, L+1)), "s", "q", k)
			label := fmt.Sprintf("n=%d p=%d k=%d length %d", n, p, k, L+1)
			head := topK(1, want, label+" TopK(1)")
			all := topK(k, want, label+" TopK(k)")
			if len(all) > 0 && !reflect.DeepEqual(head, all[:1]) || len(all) == 0 && len(head) > 0 {
				t.Fatalf("%s: TopK(1) %v is not the head of TopK(k) %v", label, head, all)
			}
		}
	})
}
