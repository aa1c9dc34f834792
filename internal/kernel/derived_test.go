// Differential tests for donor-derived checkpoint materialization: a
// lazy checkpoint linked to a cached strict-prefix donor must build the
// very DP a from-scratch build produces. Every layer is stored in cell
// order however it was built, so the two must hold the same cells and
// scores in the same order, and every Lawler child of the alignment must
// resolve through either to the same answer, score bits and evidence.
package kernel_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// sameDP fails unless derived, a derived checkpoint over v, holds the DP
// fresh, a from-scratch build of its alignment over v, holds: every
// Lawler child of the alignment resolves to the same answer, score bits
// and evidence, both report the same Cells and MaterializedLayers, every
// layer holds the same cells and scores in the same order, and their
// zone frontiers price equally against b at every length.
func sameDP(t *testing.T, label string, nt *kernel.NFATables, v *kernel.SeqView, b *kernel.Bounds, derived, fresh *kernel.Checkpoint) {
	t.Helper()
	ctx := context.Background()
	for _, c := range transducer.Unconstrained().Children(fresh.Align) {
		do, dn, ds, dlp, dok, _, _ := kernel.ResumeEvidence(ctx, nt, v, derived, c, nil, nil, nil, nil)
		fo, fn, fs, flp, fok, _, _ := kernel.ResumeEvidence(ctx, nt, v, fresh, c, nil, nil, nil, nil)
		if dok != fok || dlp != flp || !automata.EqualStrings(do, fo) || !automata.EqualStrings(dn, fn) || !slices.Equal(ds, fs) {
			t.Fatalf("%s %v: derived (%v %v %v, nodes %v states %v) != fresh (%v %v %v, nodes %v states %v)",
				label, c, dok, do, dlp, dn, ds, fok, fo, flp, fn, fs)
		}
	}
	touch(t, nt, v, derived)
	touch(t, nt, v, fresh)
	if got, want := derived.MaterializedLayers(), fresh.MaterializedLayers(); got != want {
		t.Fatalf("%s: derived materialized %d layers, fresh %d", label, got, want)
	}
	if got, want := derived.Cells(), fresh.Cells(); got != want {
		t.Fatalf("%s: derived DP holds %d cells, fresh %d", label, got, want)
	}
	for i := 0; i < v.N; i++ {
		dc, ds, _ := kernel.ViewLayer(derived, i)
		fc, fs, _ := kernel.ViewLayer(fresh, i)
		if !slices.Equal(dc, fc) || !slices.Equal(ds, fs) {
			t.Fatalf("%s: layer %d differs: derived %v fresh %v", label, i, dc, fc)
		}
	}
	for n := 1; n <= v.N; n++ {
		dbd, dok := derived.FrontierBound(n, b)
		fbd, fok := fresh.FrontierBound(n, b)
		if dok != fok || dbd != fbd {
			t.Fatalf("%s: zone frontier at n %d prices %v (ok %v), fresh %v (ok %v)", label, n, dbd, dok, fbd, fok)
		}
	}
}

// TestDerivedCheckpointMatchesFresh checks derived builds against fresh
// ones (sameDP) on random instances: from a donor one symbol short and
// from a mid-alignment cut, over the whole view or a donor one position
// shorter; along a chain of derivations, every level from the one
// before; and from an extension of a derived view.
func TestDerivedCheckpointMatchesFresh(t *testing.T) {
	deep, extended, short := 0, 0, 0
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(17000 + trial)))
		in := automata.MustAlphabet("a", "b")
		out := automata.MustAlphabet("x", "y")
		m := markov.Random(in, 2+rng.Intn(4), 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		v := m.View()
		b := kernel.NewBounds(nt, v)
		// vs covers all but the last position, and ve extends it back to
		// m's length.
		ms := m.Window(1, m.Len()-1)
		vs, ve := ms.View(), extendTo(t, m, ms, m.Len()).View()
		be := kernel.NewBounds(nt, ve)
		for _, o := range answers(tr, m) {
			if len(o) < 2 {
				continue
			}
			fresh := kernel.NewLazyCheckpoint(nt, v, o, nil)
			freshE := kernel.NewLazyCheckpoint(nt, ve, o, nil)
			for _, touched := range []bool{false, true} {
				// warm touches ck first when the case asks for a donor the
				// checkpoint cache would already have built.
				warm := func(ck *kernel.Checkpoint, v *kernel.SeqView) *kernel.Checkpoint {
					if touched {
						touch(t, nt, v, ck)
					}
					return ck
				}
				// Donor cut points: the steady-state case (one symbol short)
				// and a mid-alignment cut that forces several new columns.
				for _, cut := range []int{len(o) - 1, len(o) / 2} {
					if cut < 1 {
						continue
					}
					label := fmt.Sprintf("trial %d align %v cut %d touched %v", trial, o, cut, touched)
					donor := warm(kernel.NewLazyCheckpoint(nt, v, o[:cut], nil), v)
					sameDP(t, label, nt, v, b, kernel.NewLazyCheckpointFrom(nt, v, o, donor), fresh)

					// A donor covering fewer positions than the view: the
					// positions past it relax in full.
					donor = warm(kernel.NewLazyCheckpoint(nt, vs, o[:cut], nil), vs)
					sameDP(t, label+" short donor", nt, ve, be, kernel.NewLazyCheckpointFrom(nt, ve, o, donor), freshE)
					short++
				}

				// A chain of derivations, each level from the one before:
				// o[:1] ← o[:2] ← … ← o, every level checked.
				ck := warm(kernel.NewLazyCheckpoint(nt, v, o[:1], nil), v)
				for l := 2; l <= len(o); l++ {
					ck = warm(kernel.NewLazyCheckpointFrom(nt, v, o[:l], ck), v)
					sameDP(t, fmt.Sprintf("trial %d align %v chain level %d touched %v", trial, o, l-1, touched),
						nt, v, b, ck, kernel.NewLazyCheckpoint(nt, v, o[:l], nil))
					if l-1 >= 3 {
						deep++
					}
				}

				// A derivation from an extension of a derived view: the
				// donor's layers below vs.N are themselves derived.
				root := warm(kernel.NewLazyCheckpoint(nt, vs, o[:len(o)/2], nil), vs)
				mid := warm(kernel.NewLazyCheckpointFrom(nt, vs, o[:len(o)-1], root), vs)
				ext := warm(kernel.NewExtendedLazyCheckpoint(nt, ve, mid), ve)
				sameDP(t, fmt.Sprintf("trial %d align %v from an extension touched %v", trial, o, touched),
					nt, ve, be, kernel.NewLazyCheckpointFrom(nt, ve, o, ext), freshE)
				extended++
			}
		}
	}
	if deep == 0 || extended == 0 || short == 0 {
		t.Fatalf("cases run: %d chains three or more levels deep, %d from extensions, %d short donors; want each > 0", deep, extended, short)
	}
}

// TestDerivedConcurrentFirstTouch derives several handles from one
// unmaterialized donor and touches them all at once, each through a
// resume of its own. The donor must build once — one view for it and
// one per handle — and every handle must score as a fresh build does and
// hold the DP a fresh build holds (sameDP). Run under -race, this covers
// the donor's single-flight build under derivation.
func TestDerivedConcurrentFirstTouch(t *testing.T) {
	const handles = 6
	fx := newChainFixture(t, 60, 0)
	nt, v, o := fx.nt, fx.views[0], fx.align
	b := kernel.NewBounds(nt, v)
	cut := len(o) / 2
	donor := kernel.NewLazyCheckpoint(nt, v, o[:cut], nil)
	type answer struct {
		lp float64
		ok bool
	}
	derived := make([]*kernel.Checkpoint, handles)
	fresh := make([]*kernel.Checkpoint, handles)
	cs := make([]transducer.Constraint, handles)
	want := make([]answer, handles)
	for h := range derived {
		align := o[:cut+1+h%(len(o)-cut)]
		derived[h] = kernel.NewLazyCheckpointFrom(nt, v, align, donor)
		fresh[h] = kernel.NewLazyCheckpoint(nt, v, align, nil)
		cs[h] = transducer.Constraint{Prefix: align[:len(align)-1], Mode: transducer.ExtensionsOnly}
		_, lp, ok, err := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, fresh[h], cs[h], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[h] = answer{lp, ok}
	}

	views := kernel.ViewsBuilt()
	var wg sync.WaitGroup
	gate := make(chan struct{})
	got := make([]answer, handles)
	errs := make([]error, handles)
	for h := range derived {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			<-gate
			_, lp, ok, err := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, derived[h], cs[h], nil, nil)
			got[h], errs[h] = answer{lp, ok}, err
		}(h)
	}
	close(gate)
	wg.Wait()
	if built := kernel.ViewsBuilt() - views; built != handles+1 {
		t.Errorf("%d views built, want %d: the donor once and each handle once", built, handles+1)
	}
	for h := range derived {
		if errs[h] != nil {
			t.Fatal(errs[h])
		}
		if got[h] != want[h] {
			t.Errorf("handle %d %v: resume (%v %v), fresh (%v %v)", h, cs[h], got[h].ok, got[h].lp, want[h].ok, want[h].lp)
		}
		sameDP(t, fmt.Sprintf("handle %d", h), nt, v, b, derived[h], fresh[h])
	}
	if got := donor.MaterializedLayers(); got != v.N {
		t.Errorf("donor materialized %d layers, want %d", got, v.N)
	}
}
