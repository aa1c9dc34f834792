package ranked

import (
	"math"

	"markovseq/internal/automata"
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
// The bounds come from a throwaway backward sweep (kernel.NewBounds) over
// the grown view. It is used for arithmetic only and never installed as a
// pruning threshold: extendable evaluators resolve unpruned so that the
// captured frontiers and lazily extended checkpoints stay complete.
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
// N_rs, so the anchor exists whenever the handle survived in the cache.
//
// The Lawler tree owns every capture by pointer (see resolution): a
// region's last resolve returns its capture in the payload, lawler keeps
// it with the region, queued or dead, and hands it to the region's next
// resolve, and an emitted answer's payload points at the capture of the
// region that emitted it. Subproblems that never resolved have no
// capture of their own; their region is contained in the region that
// emitted their parent answer (Constraint.Children partitions the
// remainder), whose capture the parent payload holds. When any piece is
// missing — an evicted checkpoint, a region with no capture — the bound
// falls back to G, the global root bound, which is always admissible.

// extendSlack inflates an admissible bound by a relative epsilon so that
// float re-association between the bound arithmetic and the kernel's own
// accumulation order cannot demote a true optimum below its bound.
func extendSlack(x float64) float64 {
	if math.IsInf(x, -1) {
		return x
	}
	return x + 1e-9*(1+math.Abs(x))
}

// ExtendEnumerator carries a (possibly partially drained) ranked
// enumeration across an append: mNew must be an extension of the
// enumerator's sequence, and the enumerator's evaluator must be in
// extendable mode. It returns ok=false — and the caller falls back to a
// fresh NewEnumerator — when the enumerator cannot be carried: nil, not
// extendable, or nothing emitted yet (an undrained tree has no resolved
// state worth carrying).
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
func ExtendEnumerator(e *Enumerator, mNew *markov.Sequence, _ int) (*Enumerator, bool) {
	nev, seeds, ok := reseed(e, mNew)
	if !ok {
		return nil, false
	}
	return &Enumerator{inner: lawler.NewSeeded(lawlerConfig(nev.resolveAnswer), seeds), ev: nev}, true
}

// reseed is ExtendEnumerator up to the seeded queue: the extended
// evaluator and the carried seeds with their re-priced bounds.
func reseed(e *Enumerator, mNew *markov.Sequence) (*Evaluator, []lawler.Seed[resolution], bool) {
	if e == nil || e.ev == nil || !e.ev.extendable {
		return nil, nil, false
	}
	emitted := e.inner.EmittedLog()
	pending := e.inner.Frontier()
	if len(emitted) == 0 {
		// Nothing emitted since construction. A fresh tree (root-only
		// frontier) has no resolved state worth carrying; a previously
		// carried tree that was never drained still holds its re-seeded
		// singletons and bounds, which survive another carry.
		carried := false
		for _, p := range pending {
			if !p.Root {
				carried = true
				break
			}
		}
		if !carried {
			return nil, nil, false
		}
	}
	nev := e.ev.Extend(mNew)
	// Arithmetic only; never installed. The potential array moves along
	// the evaluator chain (see Evaluator.bscratch), so steady-state
	// carries neither allocate nor zero N·K·Q floats apiece.
	b := kernel.NewBoundsInto(e.ev.bscratch.Swap(nil), nev.nt, nev.v)
	states := nev.nt.States

	// G: admissible bound on every answer — best initial log weight plus
	// the exact completion potential of the entered cell.
	G := math.Inf(-1)
	row0 := b.Row(0)
	for ii, x := range nev.v.InitIdx {
		lp := math.Log(nev.v.InitVal[ii])
		base := int(x) * states
		for q := 0; q < states; q++ {
			if s := lp + row0[base+q]; s > G {
				G = s
			}
		}
	}
	G = extendSlack(G)

	// regionBound prices a region from its resolve capture plus the zone
	// frontier of the alignment's checkpoint anchored at or below the
	// capture epoch. ok=false when either piece is missing — the result
	// would cover only part of the region.
	//
	// The result is memoized per carry, keyed by the capture pointer.
	// One capture can meet two alignments: a region R's capture prices
	// R's own answer under R's alignment (its parent's output), then each
	// unresolved child of that answer under the answer's output, and
	// every later caller gets the price memoized first. Either price is
	// admissible for all of them: the runs that (b) above covers have
	// not yet left R's prefix constraint, so their output is an exact
	// prefix of R's prefix, and hence of both alignments, and each
	// alignment's zone frontier dominates them. Tie-heavy drains re-seed
	// many siblings of one region; without the memo each sibling would
	// re-scan the same frontier and zone rows.
	type rbRes struct {
		bd float64
		ok bool
	}
	rbMemo := make(map[*kernel.ResumeState]rbRes)
	var keyBuf []byte // reused across every checkpoint probe below; see AppendKey
	regionBound := func(rs *kernel.ResumeState, align []automata.Symbol) (float64, bool) {
		if rs == nil || rs.N < 1 || rs.N > nev.v.N {
			return 0, false
		}
		if r, hit := rbMemo[rs]; hit {
			return r.bd, r.ok
		}
		price := func() (float64, bool) {
			keyBuf = automata.AppendKey(keyBuf[:0], align)
			ck := nev.cache.peekBytes(keyBuf)
			if ck == nil {
				return 0, false
			}
			bd, ok := ck.FrontierBound(rs.N, b)
			if !ok {
				return 0, false
			}
			frow := b.Row(rs.N - 1)
			for i, cell := range rs.Cells {
				if s := rs.Scores[i] + frow[cell]; s > bd {
					bd = s
				}
			}
			return extendSlack(bd), true
		}
		bd, ok := price()
		rbMemo[rs] = rbRes{bd, ok}
		return bd, ok
	}

	seeds := make([]lawler.Seed[resolution], 0, len(emitted)+len(pending))
	// Emitted answers first, in emission order: each re-enters as an
	// exact singleton whose bound is its emitting region's re-priced
	// bound (the singleton is a subset of that region). A singleton that
	// emitted itself is the same region again and keeps its capture; one
	// split off a wider region starts without one.
	for _, rec := range emitted {
		align := rec.Parent.Output
		if rec.Root {
			align = rec.C.Prefix
		}
		bd, ok := regionBound(rec.Top.rs, align)
		if !ok {
			bd = G
		}
		s := lawler.Seed[resolution]{
			C:      transducer.Constraint{Prefix: rec.Top.Output, Mode: transducer.ExactOnly},
			Parent: rec.Top,
			Bound:  bd,
		}
		if rec.C.Mode == transducer.ExactOnly {
			s.Prior.rs = rec.Top.rs
		}
		seeds = append(seeds, s)
	}
	// Then the unemitted frontier — queued and decided-empty subproblems —
	// in insertion order. A subproblem that resolved in some prior epoch
	// prices itself from its own capture; one that never resolved prices
	// itself from the capture of the region that emitted its parent
	// answer; either way the zone is anchored on the subproblem's own
	// alignment. Only the capture pointer is carried: a resolved but
	// unemitted answer is re-resolved after the append anyway, and
	// carrying it would keep its output alive.
	for _, p := range pending {
		align := p.Parent.Output
		if p.Root {
			align = p.C.Prefix
		}
		bd, ok := regionBound(p.Prior.rs, align)
		if !ok && !p.Root {
			bd, ok = regionBound(p.Parent.rs, align)
		}
		if !ok {
			bd = G
		}
		seeds = append(seeds, lawler.Seed[resolution]{C: p.C, Parent: p.Parent, Prior: resolution{rs: p.Prior.rs}, Root: p.Root, Bound: bd})
	}
	nev.reused.Add(uint64(len(emitted)))
	nev.reseeded.Add(uint64(len(pending)))
	nev.bscratch.Store(b) // seeds hold plain floats; b is free to recycle
	return nev, seeds, true
}
