package markov

import (
	"math/rand"
	"reflect"
	"testing"

	"markovseq/internal/automata"
)

// TestWindowerEvictBefore pins the resident-suffix contract: evicted
// rows panic on access, surviving rows are untouched, Extend still seeds
// from the (always kept) final row, and windows opened at or after the
// eviction bound are bit-identical to an unevicted windower's.
func TestWindowerEvictBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const n = 40
	ab := automata.MustAlphabet("a", "b", "c")
	full := Random(ab, n, 0.8, rng)
	w := full.Windower()
	fresh := full.Windower()

	if w.Resident() != n || w.Len() != n {
		t.Fatalf("fresh windower: resident %d, len %d, want %d", w.Resident(), w.Len(), n)
	}
	w.EvictBefore(10)
	if w.Resident() != n-10 || w.Len() != n {
		t.Fatalf("after EvictBefore(10): resident %d, len %d", w.Resident(), w.Len())
	}
	// Idempotent / monotone: a lower bound is a no-op.
	w.EvictBefore(4)
	if w.Resident() != n-10 {
		t.Fatalf("EvictBefore went backwards: resident %d", w.Resident())
	}
	for i := 10; i < n; i++ {
		if !reflect.DeepEqual(w.Row(i), fresh.Row(i)) {
			t.Fatalf("surviving row %d changed under eviction", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Row(9) after EvictBefore(10) should panic")
			}
		}()
		w.Row(9)
	}()
	if got, want := w.SharedWindow(11, 20), fresh.SharedWindow(11, 20); !reflect.DeepEqual(got.Initial, want.Initial) {
		t.Fatal("window initial differs after eviction")
	}

	// The final row survives even an over-large bound, so Extend works.
	w.EvictBefore(n + 5)
	if w.Resident() != 1 {
		t.Fatalf("resident after full eviction = %d, want 1", w.Resident())
	}
	grown, err := full.Extended([][][]float64{Random(ab, 2, 0.8, rng).TransAt(1)})
	if err != nil {
		t.Fatal(err)
	}
	w.Extend(grown)
	fresh2 := grown.Windower()
	if !reflect.DeepEqual(w.Row(n), fresh2.Row(n)) {
		t.Fatal("marginal extended from an evicted windower differs from a full forward pass")
	}
}

// TestWindowerEvictKeepsSlots pins the cost contract of EvictBefore: it
// reclaims the evicted rows without moving the resident ones, so a
// cursor evicting one row per window does O(1) work per eviction
// instead of copying the whole resident suffix down.
func TestWindowerEvictKeepsSlots(t *testing.T) {
	const n = 30
	w := Random(automata.MustAlphabet("a", "b"), n, 0.8, rand.New(rand.NewSource(92))).Windower()
	slots := make([]*[]float64, n)
	for i := range slots {
		slots[i] = &w.rows[i]
	}
	for _, bound := range []int{1, 2, 7, 8, 20} {
		w.EvictBefore(bound)
		for i := bound; i < n; i++ {
			if &w.rows[i-w.base] != slots[i] {
				t.Fatalf("EvictBefore(%d) moved resident row %d to another slot", bound, i)
			}
		}
		for i := 0; i < bound; i++ {
			if *slots[i] != nil {
				t.Fatalf("EvictBefore(%d) left evicted row %d referenced", bound, i)
			}
		}
	}
}

// TestWindowerSlidingCycles runs a caught-up cursor's life at a fixed
// window: about 10⁴ cycles of one appended event and one eviction. Every
// resident row must stay bit-identical to a fresh windower's over the
// full sequence, and the resident table must stay within window + 1
// rows.
func TestWindowerSlidingCycles(t *testing.T) {
	const n, window = 10_000, 8
	rng := rand.New(rand.NewSource(93))
	full := Random(automata.MustAlphabet("a", "b", "c"), n, 0.7, rng)
	fresh := full.Windower()
	m := full.Window(1, window)
	w := m.Windower()
	for l := window; l < n; l++ {
		var err error
		if m, err = m.Extended([][][]float64{full.TransAt(l)}); err != nil {
			t.Fatal(err)
		}
		w.Extend(m)
		w.EvictBefore(w.Len() - window)
		if r := w.Resident(); r > window+1 {
			t.Fatalf("after %d appends: %d resident rows, want ≤ %d", l+1-window, r, window+1)
		}
		for i := w.Len() - w.Resident(); i < w.Len(); i++ {
			if !reflect.DeepEqual(w.Row(i), fresh.Row(i)) {
				t.Fatalf("after %d appends: resident row %d differs from a fresh windower's", l+1-window, i)
			}
		}
	}
	if w.Len() != n {
		t.Fatalf("windower covers %d positions, want %d", w.Len(), n)
	}
}
