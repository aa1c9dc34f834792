// Differential tests for donor-derived checkpoint materialization: a
// lazy checkpoint linked to a cached strict-prefix donor must build the
// same DP a from-scratch build produces — same cell population, and
// bit-identical optima for every Lawler child region. Payload identity
// is asserted up to exact score ties: the derived build assembles
// layers in a different activation order than the from-scratch sweep,
// which is allowed to pick a different representative inside a class of
// exactly tied answers (the ranked layer's tie-class contract).
package kernel_test

import (
	"context"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

func TestDerivedCheckpointMatchesFresh(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(17000 + trial)))
		in := automata.MustAlphabet("a", "b")
		out := automata.MustAlphabet("x", "y")
		m := markov.Random(in, 2+rng.Intn(4), 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		v := m.View()
		for _, o := range answers(tr, m) {
			if len(o) < 2 {
				continue
			}
			// Donor cut points: the steady-state case (one symbol short)
			// and a mid-alignment cut that forces several new columns.
			for _, cut := range []int{len(o) - 1, len(o) / 2} {
				if cut < 1 {
					continue
				}
				for _, touch := range []bool{false, true} {
					donor := kernel.NewLazyCheckpoint(nt, v, o[:cut], nil)
					if touch {
						// Materialize the donor through a resolve first, as
						// the checkpoint cache would have.
						kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, donor, transducer.Constraint{
							Prefix: o[:cut], Mode: transducer.ExtensionsOnly,
						}, nil, nil)
					}
					derived := kernel.NewLazyCheckpointFrom(nt, v, o, donor)
					fresh := kernel.NewLazyCheckpoint(nt, v, o, nil)
					for _, c := range transducer.Unconstrained().Children(o) {
						do, _, _, dlp, dok, _ := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, derived, c, nil, nil)
						fo, _, _, flp, fok, _ := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, fresh, c, nil, nil)
						if dok != fok {
							t.Fatalf("trial %d cut %d touch %v %v: derived ok=%v fresh ok=%v",
								trial, cut, touch, c, dok, fok)
						}
						if !dok {
							continue
						}
						if dlp != flp {
							t.Fatalf("trial %d cut %d touch %v %v: derived score %v != fresh %v (must be bit-identical)",
								trial, cut, touch, c, dlp, flp)
						}
						if automata.EqualStrings(do, fo) {
							continue
						}
						// Different representatives are legal only inside an
						// exact tie: both answers must score the optimum when
						// re-resolved as exact singletons, each through a
						// checkpoint aligned to itself (a representative need
						// not be a prefix of o).
						for _, ans := range [][]automata.Symbol{do, fo} {
							own := kernel.NewLazyCheckpoint(nt, v, ans, nil)
							_, _, _, alp, aok, _ := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, own, transducer.Constraint{
								Prefix: ans, Mode: transducer.ExactOnly,
							}, nil, nil)
							if !aok || alp != flp {
								t.Fatalf("trial %d cut %d touch %v %v: derived answer %v and fresh answer %v differ beyond an exact tie (ok=%v score %v vs %v)",
									trial, cut, touch, c, do, fo, aok, alp, flp)
							}
						}
					}
					if got, want := derived.MaterializedLayers(), fresh.MaterializedLayers(); got != want {
						t.Fatalf("trial %d cut %d touch %v: derived materialized %d layers, fresh %d",
							trial, cut, touch, got, want)
					}
					if got, want := derived.Cells(), fresh.Cells(); got != want {
						t.Fatalf("trial %d cut %d touch %v: derived DP holds %d cells, fresh %d",
							trial, cut, touch, got, want)
					}
				}
			}
		}
	}
}
