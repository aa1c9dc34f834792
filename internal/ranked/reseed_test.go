package ranked

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"markovseq/internal/automata"
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

func (a *captureAudit) resolve(ev *Evaluator) resolveFunc {
	return func(ctx context.Context, c transducer.Constraint, align []automata.Symbol, prior *kernel.ResumeState) (resolution, bool, error) {
		id := regionID(c)
		if want := a.last[id]; prior != want {
			a.t.Fatalf("n=%d: resolve of %v got prior %p, want its last capture %p", ev.v.N, c, prior, want)
		}
		if prior != nil {
			a.carried++
		}
		r, ok, err := ev.resolveAnswer(ctx, c, align, prior)
		if err == nil {
			a.last[id] = r.rs
		}
		return r, ok, err
	}
}

// auditCarries grows full's first start positions by one event at a
// time up to its full length, draining k answers after every carry, and
// checks at each carry that (a) every seed's bound is at least its
// region's best score over the grown sequence — the seed's constraint
// resolved afresh; empty regions are exempt — and (b) every region
// gets its own capture back (captureAudit). It returns the number of
// resolves that received a carried capture.
func auditCarries(t *testing.T, label string, tr *transducer.Transducer, full *markov.Sequence, start, k int) int {
	t.Helper()
	audit := &captureAudit{t: t, last: map[string]*kernel.ResumeState{}}
	grown := full.Window(1, start)
	ev := NewEvaluator(tr, grown, WithExtendable())
	e := &Enumerator{inner: lawler.New(lawlerConfig(audit.resolve(ev))), ev: ev}
	if len(drainAnswers(e.Next, k)) == 0 {
		return 0 // empty language: nothing to carry
	}
	for grown.Len() < full.Len() {
		grown = growBy(t, grown, full, grown.Len(), 1)
		nev, seeds, ok := reseed(e, grown)
		if !ok {
			t.Fatalf("%s n=%d: carry refused", label, grown.Len())
		}
		// The reference resolves each seed on a fresh pruned evaluator
		// against its own alignment, seeds of one alignment in a row, so
		// each alignment's checkpoint is built once per carry.
		ref := NewEvaluator(tr, grown)
		align := func(s lawler.Seed[resolution]) []automata.Symbol {
			if s.Root {
				return s.C.Prefix
			}
			return s.Parent.Output
		}
		order := make([]lawler.Seed[resolution], len(seeds))
		copy(order, seeds)
		slices.SortStableFunc(order, func(a, b lawler.Seed[resolution]) int { return slices.Compare(align(a), align(b)) })
		for _, s := range order {
			if _, _, best, nonempty := ref.resolve(s.C, align(s)); nonempty && s.Bound < best {
				t.Fatalf("%s n=%d: seed %v bound %v is below its region's best score %v", label, grown.Len(), s.C, s.Bound, best)
			}
		}
		e = &Enumerator{inner: lawler.NewSeeded(lawlerConfig(audit.resolve(nev)), seeds), ev: nev}
		drainAnswers(e.Next, k)
	}
	return audit.carried
}

// TestReseedBoundsAdmissibleAndCapturesCarried: at every carry, every
// seed's bound is admissible and every region that resolved before
// continues from its own capture. Neither shows in the answers — an
// inadmissible bound on a region outside the drained top-k, or a prior
// that stops arriving, leaves every answer bit-identical, and only
// brings back full re-sweeps — so they are checked here directly, on
// the RFID serving workload and on small random instances.
func TestReseedBoundsAdmissibleAndCapturesCarried(t *testing.T) {
	const start, appends, k = 200, 20, 10
	tr, full := rfidRankedWorkload(t, start+appends)
	if auditCarries(t, "rfid", tr, full, start, k) == 0 {
		t.Fatal("rfid: no resolve continued from a carried capture")
	}

	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	carried := 0
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(93100 + trial)))
		n := 8 + rng.Intn(6)
		full := markov.Random(in, n, 0.6, rng)
		tr := randomNDTransducer(in, out, 1+rng.Intn(3), rng)
		carried += auditCarries(t, fmt.Sprintf("trial %d", trial), tr, full, 3+rng.Intn(3), 1+rng.Intn(6))
	}
	if carried == 0 {
		t.Fatal("random instances: no resolve continued from a carried capture")
	}
}
