// Tests for how materialized checkpoints are stored: exact-size slabs,
// compact layer headers, and extension chains that keep no ancestor's
// header array alive, including under concurrent readers.
package kernel_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/rfid"
	"markovseq/internal/transducer"
)

// touch materializes ck over v through one exact-answer resume of its
// own alignment.
func touch(t *testing.T, nt *kernel.NFATables, v *kernel.SeqView, ck *kernel.Checkpoint) {
	t.Helper()
	c := transducer.Constraint{Prefix: ck.Align, Mode: transducer.ExactOnly}
	if _, _, _, err := kernel.ResumeConstrainedBoundedCtx(context.Background(), nt, v, ck, c, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// extendTo returns m extended by full's transitions up to length n.
func extendTo(t *testing.T, full, m *markov.Sequence, n int) *markov.Sequence {
	t.Helper()
	for m.Len() < n {
		var err error
		if m, err = m.Extended([][][]float64{full.TransAt(m.Len())}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestCheckpointStorageExact pins the storage contract of materialized
// checkpoints on the RFID and textgen workloads: a layer header takes at
// most 24 bytes; a full build, a derived build and one- and five-position
// extensions each own a header array of exactly the sequence length and
// slab arrays (cells, scores, roots) that hold exactly the cells the
// build relaxed, with no spare capacity. An extension's slab holds its
// appended layers only. A derived build from a fully relaxed donor owns
// only its band — the fresh build's cells less the donor's — and reads
// the donor's cells through one root per position, kept in its slab. A
// materialized handle keeps no extension base.
func TestCheckpointStorageExact(t *testing.T) {
	if kernel.LayerHeaderBytes > 24 {
		t.Errorf("a layer header takes %d bytes, want at most 24", kernel.LayerHeaderBytes)
	}
	for _, wl := range []struct {
		name string
		load func(testing.TB) (*markov.Sequence, *transducer.Transducer, []automata.Symbol)
	}{{"rfid", rfidWorkload}, {"textgen", textgenWorkload}} {
		t.Run(wl.name, func(t *testing.T) {
			full, tr, o := wl.load(t)
			nt := kernel.NewNFATables(tr)
			n := full.Len()
			v := full.View()
			check := func(label string, ck *kernel.Checkpoint, v *kernel.SeqView, relaxed, shared, roots int) {
				t.Helper()
				touch(t, nt, v, ck)
				st, ok := kernel.CheckpointStorage(ck)
				if !ok {
					t.Fatalf("%s: not materialized after a resume", label)
				}
				if st.Cells == 0 || st.Cells != relaxed {
					t.Errorf("%s: view owns %d cells, want the %d it relaxed (> 0)", label, st.Cells, relaxed)
				}
				if st.Shared != shared {
					t.Errorf("%s: view shares %d cells, want %d", label, st.Shared, shared)
				}
				if st.Headers != v.N || st.HeadersCap != v.N {
					t.Errorf("%s: header array len %d cap %d, want %d", label, st.Headers, st.HeadersCap, v.N)
				}
				want := [3]int{st.Cells, st.Cells, roots}
				if st.Len != want || st.Cap != want {
					t.Errorf("%s: slab arrays (cells, score, roots) len %v cap %v, want exactly %v", label, st.Len, st.Cap, want)
				}
				if st.Base {
					t.Errorf("%s: materialized handle keeps its extension base", label)
				}
			}

			fresh := kernel.NewLazyCheckpoint(nt, v, o, nil)
			touch(t, nt, v, fresh)
			check("full", kernel.NewLazyCheckpoint(nt, v, o, nil), v, fresh.Cells(), 0, 0)

			donor := kernel.NewLazyCheckpoint(nt, v, o[:len(o)-1], nil)
			touch(t, nt, v, donor)
			check("derived", kernel.NewLazyCheckpointFrom(nt, v, o, donor), v, fresh.Cells()-donor.Cells(), donor.Cells(), v.N)

			for _, d := range []int{1, 5} {
				bv := full.Window(1, n-5).View()
				base := kernel.NewLazyCheckpoint(nt, bv, o, nil)
				touch(t, nt, bv, base)
				ev := extendTo(t, full, full.Window(1, n-5), n-5+d).View()
				prefix := kernel.NewLazyCheckpoint(nt, ev, o, nil)
				touch(t, nt, ev, prefix)
				check(fmt.Sprintf("extension by %d", d), kernel.NewExtendedLazyCheckpoint(nt, ev, base), ev, prefix.Cells()-base.Cells(), 0, 0)
			}
		})
	}
}

// chainFixture is an RFID trace of n0+appends positions, its tables, an
// alignment, and the views over each prefix length from n0 on.
type chainFixture struct {
	nt    *kernel.NFATables
	align []automata.Symbol
	views []*kernel.SeqView // views[k] covers n0+k positions
	fresh *kernel.Checkpoint
}

func newChainFixture(t *testing.T, n0, appends int) *chainFixture {
	t.Helper()
	f := rfid.Hospital(4, 2)
	trc, err := rfid.Simulate(rfid.BuildHMM(f, rfid.DefaultNoise), n0+appends, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	tr := rfid.PlaceTransducer(f, "lab")
	nt := kernel.NewNFATables(tr)
	full := trc.Seq
	o, _, _, _, ok := kernel.ConstrainedViterbi(nt, full.View(), transducer.Unconstrained(), nil, nil)
	if !ok || len(o) == 0 {
		t.Fatalf("the trace's top answer %v (ok %v) cannot anchor a chain", o, ok)
	}
	fx := &chainFixture{nt: nt, align: o}
	m := full.Window(1, n0)
	fx.views = append(fx.views, m.View())
	for k := 1; k <= appends; k++ {
		m = extendTo(t, full, m, n0+k)
		fx.views = append(fx.views, m.View())
	}
	fx.fresh = kernel.NewLazyCheckpoint(nt, fx.views[appends], o, nil)
	touch(t, nt, fx.views[appends], fx.fresh)
	return fx
}

// frontierMismatch reports an error unless the layer ck.FrontierBound(maxN,
// ·) prices is the layer a fresh build holds at the position it reports.
func (fx *chainFixture) frontierMismatch(ck *kernel.Checkpoint, maxN int) error {
	cells, scores, n, ok := kernel.FrontierLayer(ck, maxN)
	if !ok || n < 1 || n > maxN {
		return fmt.Errorf("FrontierLayer(%d) = n %d ok %v", maxN, n, ok)
	}
	wc, ws, wn, _ := kernel.FrontierLayer(fx.fresh, n)
	if n != wn || !slices.Equal(cells, wc) || !slices.Equal(scores, ws) {
		return fmt.Errorf("FrontierLayer(%d) at n %d: %d cells differ from the fresh build's layer %d (%d cells)", maxN, n, len(cells), n-1, len(wc))
	}
	return nil
}

// TestExtensionChainLong extends one checkpoint by one position 200
// times, touching every link with a resume. Each link's final frontier
// and, at sampled epochs, the newest link's interior frontier must equal
// a fresh build's layer bit for bit; resumes against the newest link
// must equal ConstrainedViterbi over the same view; and the newest link
// must reach no header array but its own.
func TestExtensionChainLong(t *testing.T) {
	const n0, appends = 40, 200
	fx := newChainFixture(t, n0, appends)
	ck := kernel.NewLazyCheckpoint(fx.nt, fx.views[0], fx.align, nil)
	touch(t, fx.nt, fx.views[0], ck)
	for k := 1; k <= appends; k++ {
		ck = kernel.NewExtendedLazyCheckpoint(fx.nt, fx.views[k], ck)
		touch(t, fx.nt, fx.views[k], ck)
		if err := fx.frontierMismatch(ck, n0+k); err != nil {
			t.Fatalf("link %d: %v", k, err)
		}
		if got := kernel.HeaderArrays(ck); got != 1 {
			t.Fatalf("link %d reaches %d header arrays, want its own only", k, got)
		}
	}
	for _, m := range []int{1, 2, n0 / 2, n0, n0 + 1, n0 + appends/2, n0 + appends - 1, n0 + appends} {
		if err := fx.frontierMismatch(ck, m); err != nil {
			t.Fatalf("newest link: %v", err)
		}
	}
	v := fx.views[appends]
	cs := append(transducer.Unconstrained().Children(fx.align), transducer.Unconstrained())
	for _, c := range cs {
		o, nodes, states, lp, ok, _, err := kernel.ResumeEvidence(context.Background(), fx.nt, v, ck, c, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wo, wn, ws, wlp, wok := kernel.ConstrainedViterbi(fx.nt, v, c, nil, nil)
		if ok != wok || lp != wlp || !automata.EqualStrings(o, wo) || !automata.EqualStrings(nodes, wn) || !slices.Equal(states, ws) {
			t.Fatalf("%v: chained resume (%v %v %v) != ConstrainedViterbi (%v %v %v)", c, ok, o, lp, wok, wo, wlp)
		}
	}
}

// TestDerivedExtensionMatchesFresh extends a derived checkpoint one
// position at a time, touching every link, and checks every layer of
// every link — the derived layers each link aliases and the appended
// ones it relaxed — against a fresh build's, cells and scores in order.
func TestDerivedExtensionMatchesFresh(t *testing.T) {
	const n0, appends = 40, 12
	fx := newChainFixture(t, n0, appends)
	for _, cut := range []int{len(fx.align) - 1, len(fx.align) / 2} {
		donor := kernel.NewLazyCheckpoint(fx.nt, fx.views[0], fx.align[:cut], nil)
		touch(t, fx.nt, fx.views[0], donor)
		ck := kernel.NewLazyCheckpointFrom(fx.nt, fx.views[0], fx.align, donor)
		touch(t, fx.nt, fx.views[0], ck)
		for k := 1; k <= appends; k++ {
			ck = kernel.NewExtendedLazyCheckpoint(fx.nt, fx.views[k], ck)
			touch(t, fx.nt, fx.views[k], ck)
			for m := 1; m <= n0+k; m++ {
				if err := fx.frontierMismatch(ck, m); err != nil {
					t.Fatalf("cut %d, link %d: %v", cut, k, err)
				}
			}
		}
	}
}

// TestExtensionChainConcurrentReaders reads an extension chain while it
// materializes: one goroutine touches the links oldest first, each
// publish clearing that link's base, while readers call FrontierAt on
// random links — walking links being cut — and resume older ones. Every
// read must match a fresh build. Run under -race, this covers the atomic
// base link.
func TestExtensionChainConcurrentReaders(t *testing.T) {
	const n0, appends, readers = 30, 60, 3
	fx := newChainFixture(t, n0, appends)
	links := []*kernel.Checkpoint{kernel.NewLazyCheckpoint(fx.nt, fx.views[0], fx.align, nil)}
	touch(t, fx.nt, fx.views[0], links[0])
	for k := 1; k <= appends; k++ {
		links = append(links, kernel.NewExtendedLazyCheckpoint(fx.nt, fx.views[k], links[k-1]))
	}
	c := transducer.Constraint{Prefix: fx.align[:len(fx.align)-1], Mode: transducer.ExtensionsOnly}
	type answer struct {
		out []automata.Symbol
		lp  float64
		ok  bool
	}
	want := make([]answer, len(links))
	for k := range links {
		o, _, _, lp, ok := kernel.ConstrainedViterbi(fx.nt, fx.views[k], c, nil, nil)
		want[k] = answer{o, lp, ok}
	}
	resume := func(k int) error {
		o, lp, ok, err := kernel.ResumeConstrainedBoundedCtx(context.Background(), fx.nt, fx.views[k], links[k], c, nil, nil)
		if err != nil {
			return err
		}
		if w := want[k]; ok != w.ok || lp != w.lp || !automata.EqualStrings(o, w.out) {
			return fmt.Errorf("link %d: resume (%v %v %v), ConstrainedViterbi (%v %v %v)", k, ok, o, lp, w.ok, w.out, w.lp)
		}
		return nil
	}

	// Readers resume links the writer has published (the newest of them
	// included) and call FrontierAt on any link, whose walk crosses links
	// that are being cut. The writer starts once every reader has read.
	var published atomic.Int64
	done := make(chan struct{})
	var ready, wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				k := rng.Intn(len(links))
				if err := fx.frontierMismatch(links[k], 1+rng.Intn(n0+k)); err != nil {
					t.Errorf("reader, link %d: %v", k, err)
				}
				if err := resume(rng.Intn(int(published.Load()) + 1)); err != nil {
					t.Errorf("reader: %v", err)
				}
				if i == 0 {
					ready.Done()
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(int64(r))
	}
	ready.Wait()
	for k := 1; k <= appends; k++ {
		if err := resume(k); err != nil {
			t.Error(err)
		}
		published.Store(int64(k))
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if got := kernel.HeaderArrays(links[appends]); got != 1 {
		t.Fatalf("newest link reaches %d header arrays, want its own only", got)
	}
}
