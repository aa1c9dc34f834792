package ranked

import (
	"math"

	"markovseq/internal/kernel"
	"markovseq/internal/lawler"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// This file implements the cross-append reseed of a ranked enumeration:
// instead of rebuilding the Lawler tree from the unconstrained root after
// the sequence grows, the previous drain's resolved tree is carried over
// and re-priced against the grown sequence.
//
//   - Every answer the old drain emitted is re-offered as an exact
//     singleton subproblem, so re-scoring it costs one final-layer read
//     of its (extended) prefix checkpoint instead of a full resolve.
//
//   - Every unemitted subproblem — queued or decided empty — is re-seeded
//     with a freshly computed admissible bound, so the lazy-resolution
//     invariant (nothing emits while a higher-bounded item is queued)
//     carries over and most seeds are never resolved at all.
//
// The bounds come from the backward potentials of the grown view, swept
// on demand (kernel.NewLazyBoundsInto): a carry reads the rows of its
// anchors, mostly near the end of the view, and sweeps only down to the
// lowest of them. They are used for arithmetic only and never installed
// as a pruning threshold: extendable enumerators resolve unpruned so that
// the captured frontiers and lazily extended checkpoints stay complete.
//
// Admissibility of the re-seed bound for a region R with resolve
// capture rs (taken at epoch length N_rs) and prefix checkpoint ck
// aligned to the region's parent output: every accepting run
// contributing to max E_max over R either
//
//   (a) had crossed the region boundary by position N_rs-1 — then its
//       partial score is dominated by a cell of rs, and its completion by
//       the exact potential Row(N_rs-1) of that cell; or
//
//   (b) was still inside ck's zone (output an exact prefix of the
//       alignment) at some materialized chain epoch n ≤ N_rs — then its
//       partial score is dominated by a final-layer cell of ck's deepest
//       materialized view at or below N_rs, and its completion by
//       Row(n-1) of that cell's (node, state) part.
//
// The anchor constraint n ≤ N_rs is load-bearing: a run crossing between
// the zone anchor and the frontier capture would be covered by neither
// side. The resolve that captured rs materialized its checkpoint view at
// N_rs, so the anchor exists.
//
// The Lawler tree owns every capture and every checkpoint handle by
// pointer (see resolution): a region's last resolve returns its capture
// in the payload, lawler keeps it with the region, queued or dead, and
// hands it to the region's next resolve, and an emitted answer's payload
// points at the capture of the region that emitted it and at the
// checkpoint aligned to its output, which its children copy as their
// parent. Subproblems that never resolved have no capture of their own;
// their region is contained in the region that emitted their parent
// answer (Constraint.Children partitions the remainder), whose capture
// the parent payload holds. When any piece is missing — a checkpoint
// that never materialized, a region with no capture — the bound falls
// back to G, the global root bound, which is always admissible.
//
// Every bound handed out is raised by kernel.Slack, so that float
// re-association between the bound arithmetic and the kernel's own
// accumulation order cannot demote a true optimum below its bound.

// ExtendEnumerator carries a (possibly partially drained) ranked
// enumeration across an append: mNew must be an extension of the
// enumerator's sequence, and the enumerator must be in extendable mode.
// It returns ok=false — and the caller falls back to a fresh
// NewEnumerator — when the enumerator cannot be carried: nil, not
// extendable, mNew shorter than its sequence (no checkpoint handle
// extends to it), or nothing emitted yet (an undrained tree has no
// resolved state worth carrying).
//
// The returned enumerator agrees with a from-scratch enumerator over
// mNew rank by rank on bit-identical scores, and answer-for-answer
// wherever scores strictly decrease; within a class of exactly tied
// scores the two emit the same answer set, though not necessarily in
// the same order — a from-scratch drain discovers some tied answers
// only as Lawler children of emitted tied parents, so its order inside
// a tie class depends on the tree shape, which a reseeded queue cannot
// reproduce without eagerly resolving every bound-tied child (the
// differential grid asserts this contract bit-for-bit). Emitted answers
// re-enter as exact singletons costing one checkpoint-extension read
// each, and unemitted subproblems re-enter bounded, resolved only if
// they surface. The third argument is ignored: it once sized a
// speculative-resolution pool, and every drain is now sequential.
//
// Concurrency: the carry reads e's Lawler tree and takes its recycled
// carry scratch, so, like every other use of an Enumerator, it must not
// run concurrently with a drain or another carry of e
// (core.Prepared.ExtendValidated holds the predecessor engine's mutex
// across it). e stays drainable afterwards. The two enumerations share
// carried checkpoint handles, whose materialization is safe for
// concurrent use.
func ExtendEnumerator(e *Enumerator, mNew *markov.Sequence, _ int) (*Enumerator, bool) {
	if e == nil || !e.extendable || mNew.Len() < e.v.N {
		return nil, false
	}
	ne, reprice := reseed(e, mNew)
	if ne.inner = e.inner.Carry(lawlerConfig(ne, ne.resolveAnswer, true), reprice); ne.inner == nil {
		return nil, false
	}
	ne.carry.release()
	return ne, true
}

// carryScratch is the working storage of the reseed, recycled along the
// extension lineage: a carry takes it from the enumerator it carries
// from and leaves it on the one it carries to, so a lineage holds one
// potential array and one set of memo tables instead of allocating them
// per append.
type carryScratch struct {
	// b holds the grown view's potentials, swept on demand.
	b *kernel.Bounds
	// regions memoizes the price of each capture's region, zones the
	// price of each zone frontier, keyed by its checkpoint and anchor
	// length (kernel.Checkpoint.FrontierAnchor), and handles the
	// extension of each carried checkpoint handle. All three are emptied
	// before and after each carry, so they pin nothing between appends.
	regions map[*kernel.ResumeState]regionPrice
	zones   map[zoneKey]float64
	handles map[*kernel.Checkpoint]*kernel.Checkpoint
}

type regionPrice struct {
	bd float64
	ok bool
}

type zoneKey struct {
	ck *kernel.Checkpoint
	m  int
}

// release empties the memo tables once a carry is done, so they keep no
// capture or checkpoint alive until the next carry.
func (cs *carryScratch) release() {
	if cs != nil {
		clear(cs.regions)
		clear(cs.zones)
		clear(cs.handles)
	}
}

// carried returns the extension of ck, one of the predecessor's
// checkpoint handles, onto ne's view, made once per handle per carry so
// that payloads which shared a handle share its extension; nil for nil.
func (ne *Enumerator) carried(ck *kernel.Checkpoint) *kernel.Checkpoint {
	if ck == nil {
		return nil
	}
	nk, hit := ne.carry.handles[ck]
	if !hit {
		if ck.MaterializedLayers() == 0 && ck.Layers() > 0 {
			// Never read: the extension keeps the deferral, and the DP
			// may never run at all.
			ne.handlesSkipped++
		}
		nk = kernel.NewExtendedLazyCheckpoint(ne.nt, ne.v, ck)
		ne.carry.handles[ck] = nk
	}
	return nk
}

// reseed returns e's successor over mNew, with no Lawler tree yet, and
// the function that re-prices each region lawler's Carry hands it and
// moves the region's checkpoint handle onto mNew. The successor needs no
// root handle: Carry turns the emitted root into an exact singleton. The
// first call takes e's carry scratch, so a carry that Carry refuses
// costs nothing and leaves it with e.
func reseed(e *Enumerator, mNew *markov.Sequence) (*Enumerator, func(*lawler.Region[resolution])) {
	ne := &Enumerator{
		nt:             e.nt,
		v:              mNew.View(),
		extendable:     true,
		reused:         e.reused,
		reseeded:       e.reseeded,
		handlesSkipped: e.handlesSkipped,
	}
	var cs *carryScratch
	take := func() {
		cs, e.carry = e.carry, nil
		if cs == nil {
			cs = &carryScratch{
				regions: map[*kernel.ResumeState]regionPrice{},
				zones:   map[zoneKey]float64{},
				handles: map[*kernel.Checkpoint]*kernel.Checkpoint{},
			}
		}
		ne.carry = cs
		// Arithmetic only; never installed. The bounds the carry hands out
		// are plain floats, so the successor may recycle the potential
		// array at its own carry.
		cs.b = kernel.NewLazyBoundsInto(cs.b, ne.nt, ne.v)
		cs.release()
	}

	// G, the global root bound, is admissible for every answer: the best
	// initial log weight plus the exact completion potential of the
	// entered cell. It reads row 0, the whole backward sweep, so it is
	// computed when a region first falls back to it; most carries have
	// none that does.
	G, haveG := math.Inf(-1), false
	globalBound := func() float64 {
		if !haveG {
			row0, states := cs.b.Row(0), ne.nt.States
			for ii, x := range ne.v.InitIdx {
				lp := math.Log(ne.v.InitVal[ii])
				base := int(x) * states
				for q := 0; q < states; q++ {
					if s := lp + row0[base+q]; s > G {
						G = s
					}
				}
			}
			G, haveG = G+kernel.Slack(G), true
		}
		return G
	}

	// regionBound prices a region from its resolve capture plus the zone
	// frontier of ck, the predecessor's checkpoint of the region's
	// alignment, anchored at or below the capture epoch; its extension
	// would anchor at the same view. ok=false when either piece is
	// missing — the result would cover only part of the region.
	//
	// The result is memoized per carry, keyed by the capture pointer.
	// One capture can meet two alignments: a region R's capture prices
	// R's own answer under R's alignment (its parent's output), then each
	// unresolved child of that answer under the answer's output, and
	// every later caller gets the price memoized first — which is why
	// Carry hands the emitted answers over first. Either price is
	// admissible for all of them: the runs that (b) above covers have
	// not yet left R's prefix constraint, so their output is an exact
	// prefix of R's prefix, and hence of both alignments, and each
	// alignment's zone frontier dominates them. Tie-heavy drains re-seed
	// many siblings of one region; without the memo each sibling would
	// re-scan the same frontier and zone rows.
	//
	// Zone frontiers are memoized too, by (checkpoint, anchor length m):
	// many captures of one alignment share an anchor — every region
	// resolved in the last epoch anchors at its length — and the price of
	// a zone frontier depends on nothing else.
	regionBound := func(rs *kernel.ResumeState, ck *kernel.Checkpoint) (float64, bool) {
		if rs == nil || rs.N < 1 || rs.N > ne.v.N {
			return 0, false
		}
		if r, hit := cs.regions[rs]; hit {
			return r.bd, r.ok
		}
		price := func() (float64, bool) {
			m, ok := ck.FrontierAnchor(rs.N)
			if !ok {
				return 0, false
			}
			zk := zoneKey{ck, m}
			bd, hit := cs.zones[zk]
			if !hit {
				bd, _ = ck.FrontierBound(m, cs.b)
				cs.zones[zk] = bd
			}
			frow := cs.b.Row(rs.N - 1)
			for i, cell := range rs.Cells {
				if s := rs.Scores[i] + frow[cell]; s > bd {
					bd = s
				}
			}
			return bd + kernel.Slack(bd), true
		}
		bd, ok := price()
		cs.regions[rs] = regionPrice{bd, ok}
		return bd, ok
	}

	// reprice re-enters an emitted answer as an exact singleton whose
	// bound is its emitting region's re-priced bound (the singleton is a
	// subset of that region); a singleton that emitted itself is the same
	// region again and keeps its capture, one split off a wider region
	// starts without one. An unemitted subproblem — queued or decided
	// empty — that resolved in some prior epoch prices itself from its
	// own capture; one that never resolved prices itself from the capture
	// of the region that emitted its parent answer; either way the zone
	// is anchored on the subproblem's own alignment. Only the capture
	// pointer is carried: a resolved but unemitted answer is re-resolved
	// after the append anyway, and carrying it would keep its output
	// alive. Last, the region's parent handle — the emitted answer's own,
	// for a singleton — moves onto the grown view.
	reprice := func(r *lawler.Region[resolution]) {
		if cs == nil {
			take()
		}
		ck := r.Parent.ck
		if r.Root {
			ck = e.root
		}
		bd, ok := regionBound(r.Top.rs, ck)
		if !ok && !r.Root && !r.Emitted {
			bd, ok = regionBound(r.Parent.rs, ck)
		}
		if !ok {
			bd = globalBound()
		}
		r.Bound = bd
		if r.Emitted {
			prior := resolution{}
			if r.C.Mode == transducer.ExactOnly {
				prior.rs = r.Top.rs
			}
			r.C = transducer.Constraint{Prefix: r.Top.Output, Mode: transducer.ExactOnly}
			r.Parent, r.Top, r.Root = r.Top, prior, false
			ne.reused++
		} else {
			r.Top = resolution{rs: r.Top.rs}
			ne.reseeded++
		}
		r.Parent.ck = ne.carried(r.Parent.ck)
	}
	return ne, reprice
}
