// White-box tests for the survivor store a capturing resume retains:
// its size per position, what a continuation allocates, and that the
// chain of a region continued across many appends keeps its dead paths
// bounded while staying bit-identical to a fresh capture. They live in
// package kernel because they read the store directly; sequences are
// built through NewSeqView to avoid the markov → kernel import cycle.
package kernel

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/transducer"
)

const survK = 4 // nodes of the survivor test chain

// survTransducer is a four-state transducer over a, b, c, d → x, y
// whose past zone stays wide: a and b emit and switch state, c and d
// emit nothing, and every state accepts, so every (node, state) cell
// can stay live while paths cross the boundary at any position.
func survTransducer() *transducer.Transducer {
	in := automata.MustAlphabet("a", "b", "c", "d")
	out := automata.MustAlphabet("x", "y")
	tr := transducer.New(in, out, 4, 0)
	x, y := []automata.Symbol{0}, []automata.Symbol{1}
	for q := 0; q < 4; q++ {
		tr.SetAccepting(q, true)
		tr.AddTransition(q, 0, (q+1)%4, x)
		tr.AddTransition(q, 1, (q+3)%4, y)
		tr.AddTransition(q, 1, q, x)
		tr.AddTransition(q, 2, q, nil)
		tr.AddTransition(q, 3, (q+2)%4, nil)
	}
	return tr
}

// survMatrices returns n-1 dense positive transition matrices: the first
// n-1-tail drawn from seed, the last tail from a fixed seed, so chains of
// different lengths end in the same stretch of the sequence.
func survMatrices(seed int64, n, tail int) [][][]float64 {
	draw := func(rng *rand.Rand, count int) [][][]float64 {
		mats := make([][][]float64, count)
		for i := range mats {
			mats[i] = make([][]float64, survK)
			for x := range mats[i] {
				mats[i][x] = make([]float64, survK)
				for y := range mats[i][x] {
					mats[i][x][y] = 0.1 + rng.Float64()
				}
			}
		}
		return mats
	}
	return append(draw(rand.New(rand.NewSource(seed)), n-1-tail), draw(rand.New(rand.NewSource(1)), tail)...)
}

// liveEntries counts the entries reachable from the heads of rs's store.
func liveEntries(rs *ResumeState) int {
	if rs.surv == nil {
		return 0
	}
	seen := map[int32]bool{}
	for j := range rs.Cells {
		for g, seg := rs.surv.base+int32(j), rs.surv; g >= 0 && !seen[g]; {
			seen[g] = true
			for g < seg.base {
				seg = seg.prev
			}
			g = seg.ent[2*(g-seg.base)+1]
		}
	}
	return len(seen)
}

// TestSurvivorStoreMemoryContract pins what a capture retains and what a
// continuation allocates, at n = 100 and n = 1000. A full capture's store
// grows linearly in n at a small constant per position — the dense
// traceback it replaces held K·|Q| backpointers per position. A
// one-position continuation of that capture allocates no more bytes at
// n = 1000 than at n = 100, apart from the answer and evidence slices it
// returns: it shares the prior's store instead of copying it.
func TestSurvivorStoreMemoryContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nt := NewNFATables(survTransducer())
	c := transducer.Constraint{Mode: transducer.ExtensionsOnly}
	initial := []float64{0.25, 0.25, 0.25, 0.25}
	pastSize := survK * nt.States
	sc := new(ConstrainScratch)
	var contBytes [2]uint64
	var entries, positions [2]int
	for ni, n := range []int{100, 1000} {
		mats := survMatrices(int64(n), n, 60)
		v0 := NewSeqView(initial, mats[:n-2])
		ck0 := NewLazyCheckpoint(nt, v0, nil, nil)
		prior := new(ResumeState)
		if _, _, _, _, ok, _, err := resumeConstrained(nil, nt, v0, ck0, c, nil, nil, prior, sc, true); err != nil || !ok {
			t.Fatalf("n=%d: capture failed (ok=%v err=%v)", n, ok, err)
		}
		if prior.surv.prev != nil {
			t.Fatalf("n=%d: a full capture's store is a chain", n)
		}
		entries[ni], positions[ni] = int(prior.surv.total()), v0.N
		t.Logf("n=%d: capture retains %d entries and %d crossing records over %d positions (the dense rows held %d per position), frontier %d cells",
			n, entries[ni], len(prior.surv.cross), v0.N, pastSize, len(prior.Cells))
		if entries[ni] > 2*v0.N || len(prior.surv.cross) > len(prior.Cells) {
			t.Fatalf("n=%d: capture retains %d entries and %d crossing records, want at most 2 per position and one per head",
				n, entries[ni], len(prior.surv.cross))
		}

		v1 := v0.Extend(mats[n-2:])
		ck1 := NewExtendedLazyCheckpoint(nt, v1, ck0)
		if _, err := ck1.ensureView(nil, sc); err != nil {
			t.Fatal(err)
		}
		resume := func() (out, nodes []automata.Symbol, states []int, rs *ResumeState) {
			rs = new(ResumeState)
			out, nodes, states, _, ok, continued, err := resumeConstrained(nil, nt, v1, ck1, c, nil, prior, rs, sc, true)
			if err != nil || !ok || !continued {
				t.Fatalf("n=%d: continuation failed (ok=%v continued=%v err=%v)", n, ok, continued, err)
			}
			return out, nodes, states, rs
		}
		resume() // size the scratch
		best := ^uint64(0)
		for r := 0; r < 10; r++ {
			var m0, m1, m2 runtime.MemStats
			runtime.ReadMemStats(&m0)
			out, nodes, states, rs := resume()
			runtime.ReadMemStats(&m1)
			// What the returned slices cost on their own, size classes
			// included.
			sink := [][]automata.Symbol{make([]automata.Symbol, 0, cap(out)), make([]automata.Symbol, len(nodes))}
			sinkStates := make([]int, len(states))
			runtime.ReadMemStats(&m2)
			runtime.KeepAlive(sink)
			runtime.KeepAlive(sinkStates)
			if b := (m1.TotalAlloc - m0.TotalAlloc) - (m2.TotalAlloc - m1.TotalAlloc); b < best {
				best = b
			}
			if rs.surv.prev != prior.surv || len(rs.surv.ent) > 2*len(rs.Cells) {
				t.Fatalf("n=%d: continuation store has %d entries for %d heads and does not link to the prior's",
					n, len(rs.surv.ent)/2, len(rs.Cells))
			}
		}
		contBytes[ni] = best
		t.Logf("n=%d: one-position continuation allocates %d bytes besides its answer and evidence", n, best)
	}
	if slope := float64(entries[1]-entries[0]) / float64(positions[1]-positions[0]); slope > 1.25 {
		t.Fatalf("a capture's store grows by %.2f entries per position between n=100 and n=1000, want about one", slope)
	}
	if contBytes[1] > contBytes[0] {
		t.Fatalf("one-position continuation allocates %d bytes at n=1000, %d at n=100: it copies O(n) state",
			contBytes[1], contBytes[0])
	}
}

// TestSurvivorChainStaysBoundedAndExact continues one capture across 300
// one-position appends. Every continuation must match a fresh capture
// bit for bit. The chain's retained entries must stay within twice the
// largest live store it has held, plus the slack and one continuation's
// segment — paths that stop reaching the frontier do not pile up — and
// the chain must have been compacted along the way.
func TestSurvivorChainStaysBoundedAndExact(t *testing.T) {
	nt := NewNFATables(survTransducer())
	const n0, appends = 60, 300
	mats := survMatrices(7, n0+appends, 0)
	initial := []float64{0.4, 0.3, 0.2, 0.1}
	for _, c := range []transducer.Constraint{
		{Mode: transducer.ExtensionsOnly},
		{Prefix: []automata.Symbol{0}, Mode: transducer.PrefixAndExtensions},
	} {
		v := NewSeqView(initial, mats[:n0-1])
		ck := NewLazyCheckpoint(nt, v, c.Prefix, nil)
		prior := new(ResumeState)
		if _, _, _, _, _, _, err := resumeConstrained(nil, nt, v, ck, c, nil, nil, prior, nil, true); err != nil {
			t.Fatal(err)
		}
		compactions, maxLive := 0, liveEntries(prior)
		for i := n0 - 1; i < n0-1+appends; i++ {
			v = v.Extend(mats[i : i+1])
			ck = NewExtendedLazyCheckpoint(nt, v, ck)
			rs, want := new(ResumeState), new(ResumeState)
			co, cn, cs, clp, cok, continued, err := resumeConstrained(nil, nt, v, ck, c, nil, prior, rs, nil, true)
			if err != nil || !continued {
				t.Fatalf("%v n=%d: continuation failed (continued=%v err=%v)", c, v.N, continued, err)
			}
			fo, fn, fs, flp, fok, _, _ := resumeConstrained(nil, nt, v, NewLazyCheckpoint(nt, v, c.Prefix, nil), c, nil, nil, want, nil, true)
			if cok != fok || clp != flp || !automata.EqualStrings(co, fo) || !automata.EqualStrings(cn, fn) || !slices.Equal(cs, fs) {
				t.Fatalf("%v n=%d: continued (%v %v %v) != fresh (%v %v %v)", c, v.N, cok, co, clp, fok, fo, flp)
			}
			if !slices.Equal(rs.Cells, want.Cells) || !slices.Equal(rs.Scores, want.Scores) {
				t.Fatalf("%v n=%d: continued frontier differs from the fresh one", c, v.N)
			}
			if rs.surv != nil {
				if rs.surv.prev == nil && len(rs.surv.ent)/2 > len(rs.Cells) {
					compactions++ // a root reaching below the appended position
				}
				total := int(rs.surv.total())
				maxLive = max(maxLive, liveEntries(rs))
				if total > 2*maxLive+survivorSlack+len(rs.surv.ent)/2 {
					t.Fatalf("%v n=%d: chain retains %d entries, the live store never exceeded %d", c, v.N, total, maxLive)
				}
			}
			prior = rs
		}
		if compactions == 0 {
			t.Fatalf("%v: the chain was never compacted across %d appends", c, appends)
		}
		t.Logf("%v: %d compactions over %d appends, final chain %d entries for %d live",
			c, compactions, appends, prior.surv.total(), liveEntries(prior))
	}
}
