package main

import (
	"math"
	"testing"

	"markovseq/internal/automata"
)

func ans(score float64, out ...automata.Symbol) answer {
	return answer{out: out, score: score}
}

func TestCompareRanked(t *testing.T) {
	// The reference drain, extended through its last tie class (0.2).
	want := []answer{ans(0.5, 1), ans(0.3, 2), ans(0.3, 3), ans(0.2, 4), ans(0.2, 5), ans(0.2, 6)}
	ok := [][]answer{
		{ans(0.5, 1), ans(0.3, 2), ans(0.3, 3), ans(0.2, 4)},
		{ans(0.5, 1), ans(0.3, 3), ans(0.3, 2), ans(0.2, 6)}, // another order inside ties
	}
	for _, got := range ok {
		if err := compareRanked(got, want, 4); err != nil {
			t.Errorf("%v: %v", got, err)
		}
	}
	bad := map[string][]answer{
		"short":             {ans(0.5, 1), ans(0.3, 2), ans(0.3, 3)},
		"foreign answer":    {ans(0.5, 1), ans(0.3, 2), ans(0.3, 7), ans(0.2, 4)},
		"answer moved rank": {ans(0.5, 1), ans(0.3, 2), ans(0.2, 4), ans(0.3, 3)},
		"class incomplete":  {ans(0.5, 1), ans(0.3, 2), ans(0.3, 2), ans(0.2, 4)},
	}
	for name, got := range bad {
		if err := compareRanked(got, want, 4); err == nil {
			t.Errorf("%s: accepted %v", name, got)
		}
	}
}

// TestFlippedScoreBitFails is the checker's contract: a single flipped bit
// in one score is a wrong answer, under both comparisons.
func TestFlippedScoreBitFails(t *testing.T) {
	want := []answer{ans(0.5, 1), ans(0.25, 2, 3), ans(0.125, 4)}
	for rank := range want {
		got := append([]answer(nil), want...)
		got[rank].score = math.Float64frombits(math.Float64bits(got[rank].score) ^ 1)
		if err := compareRanked(got, want, len(want)); err == nil {
			t.Errorf("rank %d: compareRanked accepted a flipped score bit", rank)
		}
		if err := compareExact(got, want); err == nil {
			t.Errorf("rank %d: compareExact accepted a flipped score bit", rank)
		}
		if digest(got) == digest(want) {
			t.Errorf("rank %d: digest ignores a flipped score bit", rank)
		}
	}
	if err := compareExact(want, append([]answer(nil), want...)); err != nil {
		t.Errorf("identical answers: %v", err)
	}
	conf := append([]answer(nil), want...)
	conf[1].conf = 1e-3
	if digest(conf) == digest(want) {
		t.Error("digest ignores the confidence")
	}
}
