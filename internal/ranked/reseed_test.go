package ranked

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/hardness"
	"markovseq/internal/kernel"
	"markovseq/internal/lawler"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// captureAudit wraps the Lawler resolves of a carried lineage and checks
// that every resolve of a region that resolved before receives that
// earlier resolve's capture as its prior. It finds the earlier capture
// independently of the tree, by constraint identity: a region of one
// lineage is the set its constraint admits, and no two live regions
// admit the same set.
type captureAudit struct {
	t    *testing.T
	last map[string]*kernel.ResumeState
	// carried counts resolves that received a capture, so the audit
	// cannot pass vacuously.
	carried int
}

func regionID(c transducer.Constraint) string {
	forb := make([]automata.Symbol, 0, len(c.Forbidden))
	for s := range c.Forbidden {
		forb = append(forb, s)
	}
	slices.Sort(forb)
	return fmt.Sprint(c.Mode, c.Prefix, forb)
}

func (a *captureAudit) resolve(e *Enumerator) resolveFunc {
	return func(ctx context.Context, c transducer.Constraint, align []automata.Symbol, prior *kernel.ResumeState) (resolution, bool, error) {
		id := regionID(c)
		if want := a.last[id]; prior != want {
			a.t.Fatalf("n=%d: resolve of %v got prior %p, want its last capture %p", e.v.N, c, prior, want)
		}
		if prior != nil {
			a.carried++
		}
		r, ok, err := e.resolveAnswer(ctx, c, align, prior)
		if err == nil {
			a.last[id] = r.rs
		}
		return r, ok, err
	}
}

// eagerPricer re-prices carried regions as the reseed does, from a
// complete backward sweep (kernel.NewBounds) instead of on-demand rows
// and without the zone-frontier memo, memoizing by capture as the
// reseed does. It records the lowest potential row the pricing reads and
// whether any region fell back to G.
type eagerPricer struct {
	ne       *Enumerator
	b        *kernel.Bounds
	G        float64
	memo     map[*kernel.ResumeState]regionPrice
	lowest   int
	fellBack bool
}

func newEagerPricer(ne *Enumerator) *eagerPricer {
	p := &eagerPricer{ne: ne, b: kernel.NewBounds(ne.nt, ne.v), G: math.Inf(-1),
		memo: map[*kernel.ResumeState]regionPrice{}, lowest: ne.v.N - 1}
	row0 := p.b.Row(0)
	for ii, x := range ne.v.InitIdx {
		lp := math.Log(ne.v.InitVal[ii])
		for q := 0; q < ne.nt.States; q++ {
			p.G = max(p.G, lp+row0[int(x)*ne.nt.States+q])
		}
	}
	p.G = extendSlack(p.G)
	return p
}

func (p *eagerPricer) price(rs *kernel.ResumeState, align []automata.Symbol) (float64, bool) {
	if rs == nil || rs.N < 1 || rs.N > p.ne.v.N {
		return 0, false
	}
	if r, hit := p.memo[rs]; hit {
		return r.bd, r.ok
	}
	var r regionPrice
	if ck := p.ne.cache.get(align, false); ck != nil {
		if r.bd, r.ok = ck.FrontierBound(rs.N, p.b); r.ok {
			m, _ := ck.FrontierAnchor(rs.N)
			p.lowest = min(p.lowest, m-1, rs.N-1)
			frow := p.b.Row(rs.N - 1)
			for i, cell := range rs.Cells {
				r.bd = max(r.bd, rs.Scores[i]+frow[cell])
			}
			r.bd = extendSlack(r.bd)
		}
	}
	p.memo[rs] = r
	return r.bd, r.ok
}

// bound is the bound the reseed must give region r as Carry hands it in.
func (p *eagerPricer) bound(r *lawler.Region[resolution], align []automata.Symbol) float64 {
	bd, ok := p.price(r.Top.rs, align)
	if !ok && !r.Root && !r.Emitted {
		bd, ok = p.price(r.Parent.rs, align)
	}
	if !ok {
		p.fellBack = true
		return p.G
	}
	return bd
}

// auditCarries grows full's first start positions by one event at a
// time up to its full length, draining k answers after every carry, and
// checks at each carry that (a) every carried region's bound is at least
// its best score over the grown sequence — the region's constraint
// resolved afresh; empty regions are exempt — (b) every region gets its
// own capture back (captureAudit), and (c) every bound, G fallbacks
// included, equals the one an eager sweep prices (eagerPricer) bit for
// bit, while the reseed's on-demand potentials are swept down to the
// lowest row the pricing reads and no lower — to row 0 only when some
// region fell back to G. It returns the number of resolves that
// received a carried capture and of carries that left row 0 unswept.
func auditCarries(t *testing.T, label string, tr *transducer.Transducer, full *markov.Sequence, start, k int) (carried, partial int) {
	t.Helper()
	audit := &captureAudit{t: t, last: map[string]*kernel.ResumeState{}}
	grown := full.Window(1, start)
	e := NewEnumerator(tr, grown, WithExtendable())
	e.inner = lawler.New(lawlerConfig(audit.resolve(e)))
	if len(drainAnswers(e.Next, k)) == 0 {
		return 0, 0 // empty language: nothing to carry
	}
	align := func(r lawler.Region[resolution]) []automata.Symbol {
		if r.Root {
			return r.C.Prefix
		}
		return r.Parent.Output
	}
	for grown.Len() < full.Len() {
		grown = growBy(t, grown, full, grown.Len(), 1)
		ne, reprice := reseed(e, grown)
		eager := newEagerPricer(ne)
		var regions []lawler.Region[resolution]
		ne.inner = e.inner.Carry(lawlerConfig(audit.resolve(ne)), func(r *lawler.Region[resolution]) {
			want := eager.bound(r, align(*r))
			reprice(r)
			if math.Float64bits(r.Bound) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: region %v bound %v, an eager sweep prices %v", label, grown.Len(), r.C, r.Bound, want)
			}
			regions = append(regions, *r)
		})
		if ne.inner == nil {
			t.Fatalf("%s n=%d: carry refused", label, grown.Len())
		}
		want := eager.lowest
		if eager.fellBack {
			want = 0
		}
		if got := ne.carry.b.SweptTo(); got != want {
			t.Fatalf("%s n=%d: the reseed swept potential rows down to %d, want %d (G fallback: %v)", label, grown.Len(), got, want, eager.fellBack)
		} else if got > 0 {
			partial++
		}
		// The reference resolves each region on a fresh pruned enumerator
		// against its own alignment, regions of one alignment in a row,
		// so each alignment's checkpoint is built once per carry.
		ref := NewEnumerator(tr, grown)
		slices.SortStableFunc(regions, func(a, b lawler.Region[resolution]) int { return slices.Compare(align(a), align(b)) })
		for _, r := range regions {
			best, nonempty, err := ref.resolveAnswer(context.Background(), r.C, align(r), nil)
			if err != nil {
				t.Fatal(err)
			}
			if nonempty && r.Bound < best.LogEmax {
				t.Fatalf("%s n=%d: region %v bound %v is below its best score %v", label, grown.Len(), r.C, r.Bound, best.LogEmax)
			}
		}
		e = ne
		drainAnswers(e.Next, k)
	}
	return audit.carried, partial
}

// TestReseedBoundsAdmissibleAndCapturesCarried: at every carry, every
// region's bound is admissible, equal to the bound an eager potential
// sweep prices, and every region that resolved before continues from
// its own capture, while the on-demand sweep stops at the lowest row the
// pricing reads. None of it shows in the answers — an
// inadmissible bound on a region outside the drained top-k, or a prior
// that stops arriving, leaves every answer bit-identical, and only
// brings back full re-sweeps — so they are checked here directly, on
// the RFID serving workload, on small random instances and on the flat
// E_max landscape of the Theorem 4.4 reduction, where every answer ties
// and tie order and bounds are at their most fragile.
func TestReseedBoundsAdmissibleAndCapturesCarried(t *testing.T) {
	const start, appends, k = 200, 20, 10
	tr, full := rfidRankedWorkload(t, start+appends)
	carried, partial := auditCarries(t, "rfid", tr, full, start, k)
	if carried == 0 {
		t.Fatal("rfid: no resolve continued from a carried capture")
	}
	if partial == 0 {
		t.Fatal("rfid: every carry swept the potentials down to row 0")
	}

	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	carried = 0
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(93100 + trial)))
		n := 8 + rng.Intn(6)
		full := markov.Random(in, n, 0.6, rng)
		tr := randomNDTransducer(in, out, 1+rng.Intn(3), rng)
		c, _ := auditCarries(t, fmt.Sprintf("trial %d", trial), tr, full, 3+rng.Intn(3), 1+rng.Intn(6))
		carried += c
	}
	if carried == 0 {
		t.Fatal("random instances: no resolve continued from a carried capture")
	}

	// The amplified Max-3-DNF reduction, its last 12 positions appended
	// one at a time with a top-12 drain after each.
	for _, seed := range []int64{100, 7, 8} {
		hi := hardness.NewMealyInstance(hardness.RandomMax3DNF(6, 5, rand.New(rand.NewSource(seed))))
		full := hi.Amplify(10)
		label := fmt.Sprintf("max3dnf seed %d", seed)
		if c, _ := auditCarries(t, label, hi.T, full, full.Len()-12, 12); c == 0 {
			t.Fatalf("%s: no resolve continued from a carried capture", label)
		}
	}
}
