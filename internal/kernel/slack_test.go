package kernel_test

import (
	"math"
	"math/rand"
	"testing"

	"markovseq/internal/kernel"
)

// TestSlackCoversReassociation pins Slack as a contract: a path's log
// probability summed in any association order — left to right, pairwise,
// or as a forward score plus a backward potential split at any position
// — differs from the left-to-right sum by less than the slack of that
// sum, over random paths of up to 4,096 steps. The slack is positive, and
// x ± Slack(x) passes -Inf through unchanged.
func TestSlackCoversReassociation(t *testing.T) {
	rng := rand.New(rand.NewSource(27000))
	var pairwise func(w []float64) float64
	pairwise = func(w []float64) float64 {
		if len(w) == 1 {
			return w[0]
		}
		h := len(w) / 2
		return pairwise(w[:h]) + pairwise(w[h:])
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4096)
		w := make([]float64, n)
		for i := range w {
			// Step probabilities in (0, 1], some of them certain and some
			// far below one.
			switch p := 1 - rng.Float64(); rng.Intn(8) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = math.Log(p * 1e-200)
			default:
				w[i] = math.Log(p)
			}
		}
		// fwd[j] is the forward score after j steps, bwd[j] the potential
		// of the steps from j on, accumulated as the backward recurrence
		// does: step weight plus the potential after it.
		fwd := make([]float64, n+1)
		bwd := make([]float64, n+1)
		for j := 0; j < n; j++ {
			fwd[j+1] = fwd[j] + w[j]
		}
		for j := n - 1; j >= 0; j-- {
			bwd[j] = w[j] + bwd[j+1]
		}
		sum := fwd[n]
		slack := kernel.Slack(sum)
		if !(slack > 0) {
			t.Fatalf("trial %d: Slack(%v) = %v, want positive", trial, sum, slack)
		}
		if d := math.Abs(pairwise(w) - sum); !(d < slack) {
			t.Fatalf("trial %d n=%d: pairwise sum differs by %v, slack %v", trial, n, d, slack)
		}
		for j := 0; j <= n; j++ {
			if d := math.Abs(fwd[j] + bwd[j] - sum); !(d < slack) {
				t.Fatalf("trial %d n=%d: score + potential split at %d differs by %v, slack %v", trial, n, j, d, slack)
			}
		}
	}
	neg := math.Inf(-1)
	if s := kernel.Slack(neg); neg+s != neg || neg-s != neg {
		t.Fatalf("Slack(-Inf) = %v moves -Inf", s)
	}
	if s := kernel.Slack(0); !(s > 0) {
		t.Fatalf("Slack(0) = %v, want positive", s)
	}
}
