package kernel

import (
	"math"
	"slices"
	"sync/atomic"
)

// This file implements weight pushing for the ranked kernel (in the
// sense of Geneva/Shopov/Mihov's canonization of monotonic probabilistic
// transducers, adapted to the composed transducer×sequence DP): a
// backward max-path sweep over the CSR step views computes, for every
// (node x, state q) cell at every position, the exact log weight of its
// best accepting completion. They only prune resumes: once a lower
// bound L on the constrained optimum is known, any cell whose score +
// potential falls below L − Slack(L) cannot lie on an optimal path, so
// the frontier sweep collapses to the corridor of near-optimal cells.
// Because the potential is exact — in the past zone of a prefix
// constraint the completion is genuinely unconstrained — L can be
// computed up front from the crossing candidates alone.
//
// Pruning is exact and order-preserving: see the determinism notes in
// constrained.go (canonical frontier ordering makes the pruned sweep
// bit-identical to the exhaustive reference, ties included).
//
// Two constructors run the one backward recurrence. NewBounds and
// NewBoundsInto run it to position 0: their rows are complete and
// immutable, shared by every kernel call that prunes with them (a pruned
// ranked enumerator's resolves, the sliding-window Sweeper's).
// NewLazyBoundsInto fills only the last row and lets Row sweep lower
// rows on first read: arithmetic-only rows for one owner, the
// cross-append ranked reseed, which reads the rows of its anchors and
// recycles the storage along its extension lineage.
type Bounds struct {
	states int
	k      int
	// pot[i·K·Q + x·Q + q] is the exact max log completion weight from
	// cell (x, q) after consuming event i: max over paths through steps
	// i..N-2 ending in an accepting state (-Inf when none exists).
	// Alignment- and initial-distribution-independent, so one Bounds per
	// (tables, view) pair serves every constraint and every checkpoint.
	// Rows lo..N-1 are filled. NewBounds fills them all (lo = 0); bounds
	// from NewLazyBoundsInto start at the last row and keep nt and v to
	// sweep lower rows when Row first reads them.
	pot []float64
	lo  int
	nt  *NFATables
	v   *SeqView

	prunedCells  atomic.Uint64
	visitedCells atomic.Uint64
	resolves     atomic.Uint64

	candsSelected atomic.Uint64
	candsSkipped  atomic.Uint64
	cellsSkipped  atomic.Uint64
}

// PruneStats is a snapshot of a Bounds' pruning-efficacy counters.
type PruneStats struct {
	// PrunedCells counts frontier candidates skipped because their
	// score + potential could not reach the incumbent optimum.
	PrunedCells uint64
	// VisitedCells counts frontier cells actually expanded; the ratio
	// pruned/(pruned+visited) is the frontier-occupancy saving.
	VisitedCells uint64
	// Resolves counts bounded kernel calls that used these potentials.
	Resolves uint64
	// CandsSelected counts boundary-crossing candidates recorded by the
	// bounded selection pass; CandsSkipped counts candidates dropped at
	// enumeration time because their score + potential was already below
	// the running optimum. Their sum is what the exhaustive pre-scan
	// would have recorded from the visited boundary cells.
	CandsSelected, CandsSkipped uint64
	// BoundaryCellsSkipped counts checkpoint boundary cells whose entire
	// edge fan-out was skipped by the selection threshold (their
	// candidates are not in CandsSkipped — they were never enumerated).
	BoundaryCellsSkipped uint64
	// LazyHandles counts the checkpoint handles a ranked enumeration
	// made, LazyLayers the DP layers they materialized on first touch:
	// LazyHandles·n − LazyLayers is the prefix DP the deferral skipped.
	// Filled at the ranked-enumerator layer; zero in a raw Bounds
	// snapshot.
	LazyLayers, LazyHandles uint64
	// HandlesSkipped counts lazy checkpoint handles that were carried
	// across an append extension without ever having relaxed a DP layer:
	// the previous drain emitted its answers while every child aligned to
	// the handle stayed bound-dominated by the k-th answer score, so the
	// materialization was skipped outright (not merely deferred). Filled
	// at the ranked-enumerator layer; zero in a raw Bounds snapshot.
	HandlesSkipped uint64
	// RankedReused counts previously emitted answers carried across an
	// append extension as exact singleton subproblems (re-scored over
	// only the appended suffix); RankedReseeded counts unresolved or
	// decided-empty frontier subproblems re-seeded with updated
	// completion bounds instead of being rebuilt. Filled at the
	// ranked-enumerator layer; zero in a raw Bounds snapshot.
	RankedReused, RankedReseeded uint64
}

// Stats returns the counters accumulated so far. Safe for concurrent
// use with running kernels.
func (b *Bounds) Stats() PruneStats {
	if b == nil {
		return PruneStats{}
	}
	return PruneStats{
		PrunedCells:          b.prunedCells.Load(),
		VisitedCells:         b.visitedCells.Load(),
		Resolves:             b.resolves.Load(),
		CandsSelected:        b.candsSelected.Load(),
		CandsSkipped:         b.candsSkipped.Load(),
		BoundaryCellsSkipped: b.cellsSkipped.Load(),
	}
}

// Add returns the field-wise sum of s and o.
func (s PruneStats) Add(o PruneStats) PruneStats {
	s.PrunedCells += o.PrunedCells
	s.VisitedCells += o.VisitedCells
	s.Resolves += o.Resolves
	s.CandsSelected += o.CandsSelected
	s.CandsSkipped += o.CandsSkipped
	s.BoundaryCellsSkipped += o.BoundaryCellsSkipped
	s.LazyLayers += o.LazyLayers
	s.LazyHandles += o.LazyHandles
	s.HandlesSkipped += o.HandlesSkipped
	s.RankedReused += o.RankedReused
	s.RankedReseeded += o.RankedReseeded
	return s
}

// addStats folds one kernel call's locally accumulated counters in.
func (b *Bounds) addStats(pruned, visited, selected, candsSkipped, cellsSkipped uint64) {
	b.prunedCells.Add(pruned)
	b.visitedCells.Add(visited)
	b.candsSelected.Add(selected)
	b.candsSkipped.Add(candsSkipped)
	b.cellsSkipped.Add(cellsSkipped)
	b.resolves.Add(1)
}

// Row returns the potential row of position i: Row(i)[x·|Q|+q] is the
// exact best log completion weight from past-zone cell (x, q) after
// consuming event i, -Inf when no accepting completion exists. The row
// is read-only. The incremental ranked reseed prices retained resolve
// frontiers and stale checkpoint layers against a freshly grown
// sequence with it. On bounds from NewLazyBoundsInto, reading a row
// below every row read so far sweeps the rows down to it first.
func (b *Bounds) Row(i int) []float64 {
	if i < b.lo {
		b.sweep(i)
	}
	kq := b.k * b.states
	return b.pot[i*kq : (i+1)*kq : (i+1)*kq]
}

// SweptTo returns the lowest position whose row is filled: 0 for
// NewBounds and NewBoundsInto, the lowest row read so far (or the last
// row) for NewLazyBoundsInto.
func (b *Bounds) SweptTo() int { return b.lo }

// BoundsMinN is the sequence length below which callers should skip
// building Bounds for a single top-k drain: the backward sweep plus
// the bounded kernels' candidate bookkeeping cost more than the
// pruning saves on very short views (measured crossover ≈ 32 events
// on the RFID serving workload). Both callers are in package ranked:
// ranked.NewEnumerator prunes only views at least this long (and never
// in extendable mode), and ranked.Sweeper builds no bounds for shorter
// windows.
const BoundsMinN = 32

// Slack is the float slack of every bound comparison, 1e-9·(1+|x|): a
// pruning threshold sits Slack(L) below its bound L, and the reseed
// raises each bound x it hands out by Slack(x), so summing a path in
// another association order never cuts or demotes a true optimum.
// Positive for finite x; 0 for -Inf, which x ± Slack(x) keeps.
func Slack(x float64) float64 {
	if math.IsInf(x, -1) {
		return 0
	}
	return 1e-9 * (1 + math.Abs(x))
}

// NewBounds computes the pushed weights for the pair (nt, v): one
// backward O(N·K·deg·|δ|) sweep, ~N·K·Q float64s resident. The result is
// complete and immutable (counters aside), and safe for concurrent use
// by any number of kernel calls.
func NewBounds(nt *NFATables, v *SeqView) *Bounds {
	return NewBoundsInto(nil, nt, v)
}

// NewBoundsInto is NewBounds reusing b's storage when possible (the
// sliding-window sweeper rebuilds bounds per window; recycling the
// potential array makes that alloc-free at steady state). b may be nil.
// A recycled array too small for v grows geometrically, so a caller
// whose view grows by a row per append reallocates O(log n) times, not
// on every append.
func NewBoundsInto(b *Bounds, nt *NFATables, v *SeqView) *Bounds {
	b = NewLazyBoundsInto(b, nt, v)
	b.sweep(0)
	return b
}

// NewLazyBoundsInto is NewBoundsInto for a caller that reads a few rows
// through Row: it fills the last row only, and Row sweeps each lower row
// on its first read, with the same recurrence and so to the same bits
// as NewBoundsInto. The bounds are not safe for concurrent use, since
// Row writes them, and must never prune a kernel call, which reads rows
// directly. The cross-append ranked reseed prices with them:
// it reads the rows of its carried anchors, mostly near the end.
func NewLazyBoundsInto(b *Bounds, nt *NFATables, v *SeqView) *Bounds {
	kq := v.K * nt.States
	size := v.N * kq
	if b == nil {
		b = &Bounds{}
	}
	b.states, b.k = nt.States, v.K
	b.lo, b.nt, b.v = v.N-1, nt, v
	b.pot = slices.Grow(b.pot[:0], size)[:size]
	pot := b.pot
	neg := math.Inf(-1)
	last := (v.N - 1) * kq
	for x := 0; x < v.K; x++ {
		for q := 0; q < nt.States; q++ {
			if nt.Accept[q] {
				pot[last+x*nt.States+q] = 0
			} else {
				pot[last+x*nt.States+q] = neg
			}
		}
	}
	return b
}

// sweep runs the backward recurrence from row b.lo-1 down to row to and
// lets go of the tables and view once every row is filled.
func (b *Bounds) sweep(to int) {
	nt, v := b.nt, b.v
	kq := b.k * b.states
	pot := b.pot
	neg := math.Inf(-1)
	for i := b.lo - 1; i >= to; i-- {
		row := pot[i*kq : (i+1)*kq]
		nxt := pot[(i+1)*kq : (i+2)*kq]
		for c := range row {
			row[c] = neg
		}
		st := &v.Steps[i]
		for x := 0; x < v.K; x++ {
			for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
				y := int(st.Col[e])
				w := st.LogVal[e]
				yBase := y * nt.States
				for q := 0; q < nt.States; q++ {
					lo, hi := nt.Edges(q, y)
					best := row[x*nt.States+q]
					for t := lo; t < hi; t++ {
						if cand := w + nxt[yBase+int(nt.Succ[t])]; cand > best {
							best = cand
						}
					}
					row[x*nt.States+q] = best
				}
			}
		}
	}
	b.lo = to
	if to == 0 {
		b.nt, b.v = nil, nil
	}
}
