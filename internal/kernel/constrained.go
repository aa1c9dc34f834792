package kernel

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"markovseq/internal/automata"
	"markovseq/internal/transducer"
)

// This file is the constraint-incremental Viterbi layer behind ranked
// enumeration (Theorem 4.3). The Lawler–Murty loop solves one top-answer
// subproblem per child constraint, and every child shares a long output
// prefix with the answer it was derived from; the reference path paid for
// that sharing anyway (materialize tracker×transducer product, rebuild
// tables, re-run the DP from position 0). Here the constraint is composed
// with the base NFATables on the fly, and the DP work for the shared
// prefix is captured once per printed answer in a Checkpoint:
//
//   - A Checkpoint is the forward Viterbi DP over cells (node x, state
//     q, matched-prefix count z) restricted to runs whose output so far
//     is an exact prefix of an alignment string. Each per-position layer
//     of active cells is retained as its cells and their best scores, in
//     increasing cell-id order, so the checkpoint is the whole
//     constrained frontier history, sparse. Cell ids are z-major, so the
//     cells at a resume's constraint boundary are one contiguous run that
//     a binary search finds; a layer keeps no backpointers and no bucket
//     index. A layer is a 24-byte header into a slab, the exactly sized
//     cell storage of the view that built it; a derived layer shares a
//     prefix of its donor's fully relaxed layer and stores only the
//     cells above it.
//
//   - Every checkpoint is a lazy handle (NewLazyCheckpoint): an O(1)
//     constructor with the DP deferred, so nothing is relaxed until a
//     resume first reads a layer, at which point the full DP is
//     materialized once (measured on the ranked drains, Lawler children
//     arrive at ascending prefix depths spanning the whole alignment, so
//     partial z-capped builds were always rebuilt — the win of laziness
//     is the checkpoints that are never touched at all: parents whose
//     children never reach the queue front, and the last emitted answer
//     of every drain). NewExtendedLazyCheckpoint and
//     NewLazyCheckpointFrom defer builds that reuse other checkpoints.
//     One routine, materialize, builds every kind; the source of each
//     position's layer is data in its one loop: layers an extension
//     shares with its base are aliased, layers a derivation donor covers
//     share the donor's cells and relax only the boundary band, and every
//     other layer relaxes in full.
//
//   - ResumeConstrainedBoundedCtx answers any prefix constraint whose
//     prefix is a prefix of the alignment string without re-doing
//     matched-zone work: ExactOnly constraints read the final layer;
//     extension constraints run a small past-zone DP over (x, q) seeded
//     by "crossing" transitions out of checkpoint cells, skipping every
//     position where no crossing can occur yet (maxZ + MaxEmit ≤
//     |prefix| and an empty past frontier), which is what makes a child
//     of an answer with prefix p cost O(n − |p|) instead of O(n).
//
//   - ResumeConstrainedIncCtx is the same resume run unpruned, capturing
//     its final past-zone frontier and survivor store — the traceback of
//     the best paths into that frontier and of nothing else, int32
//     (cell, parent) pairs — for the append-extendable ranked path and,
//     given such a capture over a shorter prefix, continuing it over only
//     the appended positions. Both run the one past-zone sweep,
//     resumeConstrained; a continuation is that sweep started at the
//     prior's length from the prior's frontier, whose store it extends by
//     a segment for the swept positions without copying the prior's. Every
//     traceback, captured or not, reads a survivor store (a non-capturing
//     resume builds one for its best cell alone).
//
//   - ConstrainedViterbi is a one-shot resume against a fresh handle,
//     and the one entry point that returns the run's evidence (nodes and
//     states): the resumes trace only the past-zone suffix their output
//     needs, into scratch rows, and only evidence walks the checkpoint
//     back, recovering each predecessor from the scores (walkPrefix).
//
// Determinism: every layer is in cell order however it was built (fresh,
// derived and extended views hold identical layers), the build relaxes
// predecessors in that order and relax keeps the incumbent on equal
// scores, past-zone advancement precedes crossing injection at each
// position, and a cell with z > |prefix| never feeds a cell with
// z ≤ |prefix|, so resolving a constraint against a checkpoint aligned to
// any extension of its prefix yields bit-identical results to resolving
// it against a checkpoint aligned to the prefix itself. That
// invariant is what lets every Lawler child resolve against its parent
// answer's cached checkpoint and still emit what a checkpoint aligned to
// its own prefix would. Materialization is a function of the handle's
// build inputs alone, so deferral is unobservable apart from when the
// work happens.
//
// Weight-pushed pruning (see pushing.go): when a Bounds is supplied, the
// resume enumerates boundary-crossing candidates while maintaining a
// running lower bound L on the constrained optimum (the potentials are
// exact completions, so L is the optimum up to float association), then
// runs the past-zone sweep skipping every cell whose score + potential
// cannot reach L. Candidate selection is output-sensitive: a candidate
// whose bound is already below the running threshold is dropped at
// enumeration time rather than recorded — exact, because L only grows, so
// anything below the running threshold is below the final one; and a
// whole boundary cell is skipped before its edge fan-out when its
// score + past-zone potential is below the threshold, since the backward
// recurrence makes that an upper bound on every candidate the cell can
// produce. This is exact and bit-identical to the exhaustive sweep, ties
// included:
//
//   - each layer is sorted into canonical (increasing cell) order before
//     expansion, so incumbents among equal scores are decided by cell
//     order, not arrival order — pruning survivors arrive in the same
//     canonical relative order either way;
//
//   - a pruned candidate can never tie a cell that matters: equal score
//     at a traceback-relevant cell implies equal score + potential,
//     which is ≥ L − slack and therefore above the pruning threshold;
//
//   - the final argmax breaks ties toward the smaller cell id, so it is
//     independent of frontier order entirely.
//
// The potentials only prune resumes: a checkpoint build keeps every
// cell of the exact-prefix DP, those with no accepting completion
// included (the prepared transducers of the serving layers are trimmed,
// so such cells are rare), so every checkpoint can be extended across an
// append and serve as a derivation donor.

// ckLayer is one position's frontier snapshot, a 24-byte header into the
// slab s of the view that built it. The layer's n active cells are the
// cells of its root followed by its own: a derived layer at position i
// (i < len(s.roots)) shares s.roots[i], a prefix of a fully relaxed
// layer of an earlier view (whose maxZ it keeps, unread), and owns the
// cells above it; every other layer has no root and owns all n. Each
// span holds cell ids and best log scores in increasing cell-id order,
// and a derived layer's own cells all lie in columns above its root's,
// so the layer is in cell order as a whole.
// Cell ids are z-major, so the cells of a column range are one
// contiguous run (window). Indices are layer-local, root cells first.
// maxZ is the layer's highest column. An empty layer (n = 0: the
// exact-prefix language died at or before its position) reads as empty
// through every accessor. An extension copies its base's headers, so two
// views hold a layer in the same slab — the same s.vid — exactly when
// they share every layer up to it; a derived layer is always in its own
// view's slab.
type ckLayer struct {
	s    *ckSlab
	off  int32
	n    int32
	maxZ int32
}

// viewSeq numbers materialized views (see ckSlab.vid). A captured
// ResumeState records an id rather than a view pointer so that retaining
// it never pins an evicted checkpoint's slab.
var viewSeq atomic.Uint64

// noRoot is the root of a layer that has none.
var noRoot = ckLayer{s: new(ckSlab)}

// root returns the shared root of the layer at position i, noRoot unless
// the layer is derived.
func (l *ckLayer) root(i int) *ckLayer {
	if i < len(l.s.roots) {
		return &l.s.roots[i]
	}
	return &noRoot
}

// cells and scores return the per-cell arrays of the layer at position i
// as two spans, the root's and the layer's own.
func (l *ckLayer) cells(i int) (r, o []int32) {
	rt := l.root(i)
	return rt.s.cells[rt.off : rt.off+rt.n], l.s.cells[l.off : l.off+l.n-rt.n]
}

func (l *ckLayer) scores(i int) (r, o []float64) {
	rt := l.root(i)
	return rt.s.score[rt.off : rt.off+rt.n], l.s.score[l.off : l.off+l.n-rt.n]
}

// loc returns the slab holding layer-local cell j of the layer at
// position i and the cell's index in the slab's arrays.
func (l *ckLayer) loc(i, j int) (*ckSlab, int32) {
	rt := l.root(i)
	if int32(j) < rt.n {
		return rt.s, rt.off + int32(j)
	}
	return l.s, l.off + int32(j) - rt.n
}

// below returns the number of cells below id c in a layer whose root
// span is r and own span o (each sorted, every cell of r below every
// cell of o).
func below(r, o []int32, c int32) int {
	if len(r) > 0 && c <= r[len(r)-1] {
		k, _ := slices.BinarySearch(r, c)
		return k
	}
	k, _ := slices.BinarySearch(o, c)
	return len(r) + k
}

// window returns the layer-local index range [a, b) of the cells at
// position i with z in [lo, hi]; kq is K·|Q|, the stride of z in a cell
// id. a is a binary search; b steps through the run, which the caller
// reads next anyway.
func (l *ckLayer) window(i, lo, hi int, kq int32) (a, b int) {
	lo, hi = max(lo, 0), min(hi, int(l.maxZ))
	if l.n == 0 || lo > hi {
		return 0, 0
	}
	r, o := l.cells(i)
	a, end := below(r, o, int32(lo)*kq), int32(hi+1)*kq
	for b = a; b < len(r) && r[b] < end; b++ {
	}
	for ; b >= len(r) && b < int(l.n) && o[b-len(r)] < end; b++ {
	}
	return a, b
}

// ckSlab is the cell storage of the layers one view relaxed: their own
// cells and scores concatenated into two flat arrays and, for a derived
// view, the root each derived layer shares, by position; each array
// exactly as long as its contents — a build relaxes into the growable
// buffer of its ConstrainScratch, itself a ckSlab that only grows, and
// seal copies that out. vid is the id of the view that built the slab.
// A slab is an object of its own, apart from its view's header array, so
// an extension that aliases a base's layers pins the base's slab but not
// the base's headers, and a root pins the slab it lies in.
type ckSlab struct {
	cells []int32
	score []float64
	roots []ckLayer
	vid   uint64
}

// grow extends s by n elements, reusing capacity when present.
func grow[T int32 | float64](s []T, n int) []T {
	if need := len(s) + n; cap(s) >= need {
		return s[:need]
	}
	return append(s, make([]T, n)...)
}

// snapshot appends the layer at position i to the build buffer s, points
// layer at it and resets the frontier for the next position. A derived
// position passes its donor's layer d (nil otherwise) and cut, the first
// cell id of the columns it relaxes itself. The layer then shares d's
// cells below cut: d's root, or d itself when d has none, cut short at
// cut, then a verbatim copy of d's own cells below cut — cell ids do not
// depend on the alignment — which lie above the root and are already in
// cell order. The frontier's active cells follow, sorted; on a derived
// position they all lie at or above cut. kq is K·|Q|, the stride of z in
// a cell id.
func (s *ckSlab) snapshot(layer *ckLayer, i int, f *frontier, kq int32, d *ckLayer, cut int32) {
	rt, dn := noRoot, 0
	if d != nil {
		p := d.root(i)
		if p == &noRoot {
			p = d
		}
		rt = *p
		k, _ := slices.BinarySearch(rt.s.cells[rt.off:rt.off+rt.n], cut)
		if p != d && k == int(rt.n) {
			dn, _ = slices.BinarySearch(d.s.cells[d.off:d.off+d.n-rt.n], cut)
		}
		rt.n = int32(k)
		s.roots = append(s.roots, rt)
	}
	own := dn + len(f.list)
	*layer = ckLayer{s: s}
	if int(rt.n)+own == 0 {
		return // the exact-prefix language died here; f is already empty
	}
	off := len(s.cells)
	s.cells = grow(s.cells, own)
	s.score = grow(s.score, own)
	cells, score := s.cells[off:], s.score[off:]
	if dn > 0 {
		copy(cells, d.s.cells[d.off:d.off+int32(dn)])
		copy(score, d.s.score[d.off:d.off+int32(dn)])
	}
	f.sortList()
	for t, cell := range f.list {
		cells[dn+t] = cell
		score[dn+t] = f.val[cell]
	}
	var last int32
	if own > 0 {
		last = cells[own-1]
	} else {
		last = rt.s.cells[rt.off+rt.n-1]
	}
	layer.off, layer.n, layer.maxZ = int32(off), rt.n+int32(own), last/kq
	f.reset()
}

// seal copies the build buffer b into s, each array sized exactly (a
// recycled slab reuses an array that has room), stamps s with a fresh
// view id and points the view's own layers at it; their offsets carry
// over, because the copy is verbatim. Layers past an early build break
// are zero headers and read as empty. The buffer lets go of its roots.
func (s *ckSlab) seal(b *ckSlab, own []ckLayer) {
	s.cells = fit(s.cells, b.cells)
	s.score = fit(s.score, b.score)
	s.roots = fit(s.roots, b.roots)
	clear(b.roots)
	s.vid = viewSeq.Add(1)
	for i := range own {
		own[i].s = s
	}
}

// fit copies src into dst's array when it has room, else into a new one
// of exactly len(src).
func fit[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		dst = make([]T, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// ckView is the materialized DP of a checkpoint: the header array of
// every position's retained frontier layer, and the slab of the layers
// it relaxed itself (an extension's lower layers sit in its ancestors'
// slabs, a derived layer's root in an earlier view's). A view is
// immutable once published; a resume captures it once for its whole
// call, so its traceback indices stay consistent.
type ckView struct {
	layers []ckLayer
	slab   *ckSlab
}

// Checkpoint is a lazy handle to the retained exact-prefix DP of one
// alignment string (NewLazyCheckpoint and its derived and extended
// forms). Safe for concurrent use by any number of resumes: the handle
// single-flights its deferred materialization, and the view it
// publishes is immutable.
type Checkpoint struct {
	// Align is the alignment string the DP was restricted to.
	Align  []automata.Symbol
	states int // |Q| of the tables it was built against
	n      int // sequence length it was built against
	kq     int // K·|Q| of that sequence: cell z·kq + x·|Q| + q, whatever Align

	// view is the materialized DP, published exactly once, on the first
	// touch; nil until then.
	view atomic.Pointer[ckView]

	// Build inputs of the DP: the tables and the view, with mu
	// single-flighting the materialization. Recycle clears them
	// (nt == nil marks a recycled checkpoint). Concurrent first touches
	// come from an engine and its append successor, which share carried
	// handles and may drain at once.
	mu sync.Mutex
	nt *NFATables
	v  *SeqView

	// base links an extended checkpoint (NewExtendedLazyCheckpoint) to
	// the checkpoint over the shorter sequence it continues: the first
	// base.n layers of this DP are exactly base's layers, so
	// materialization aliases instead of relaxing them. Cleared once the
	// view is published: the view holds copies of the headers it aliased,
	// and nothing reads past the first materialized view of a chain, so
	// dropping the link lets every ancestor's header array be collected.
	base atomic.Pointer[Checkpoint]

	// donor optionally links a lazy checkpoint to another checkpoint
	// whose alignment shares a prefix with Align (NewLazyCheckpointFrom).
	// Materialization then shares the donor's columns up to the common
	// prefix — the exact-prefix DP over a shared alignment prefix is
	// identical cell for cell — and relaxes only the columns past it,
	// instead of re-running the full DP. Guarded by mu: cleared once the
	// view is published, so the donor's handle and header array can be
	// collected independently; the slabs its roots lie in stay pinned.
	donor *Checkpoint

	// matLayers counts DP layers actually relaxed: the build work done,
	// against n per full build (0 for an untouched handle).
	matLayers atomic.Uint64
}

// Layers returns the number of retained positions (the sequence length).
func (ck *Checkpoint) Layers() int { return ck.n }

// Cells returns the number of cells in the materialized DP's layers,
// those a derived view shares with its donor included: the size of the
// DP, not of the memory the view owns. Zero for an untouched lazy handle.
func (ck *Checkpoint) Cells() int {
	vw := ck.view.Load()
	if vw == nil {
		return 0
	}
	total := 0
	for i := range vw.layers {
		total += int(vw.layers[i].n)
	}
	return total
}

// MaterializedLayers returns the number of DP layers this checkpoint has
// relaxed: 0 until its first touch, then n (fewer if the exact-prefix
// language died early, or if an extension aliased its base's layers).
// The gap to Layers() is the prefix DP the deferral skipped.
func (ck *Checkpoint) MaterializedLayers() int { return int(ck.matLayers.Load()) }

// NewLazyCheckpoint returns a checkpoint handle for align with the DP
// deferred: no layer is relaxed until a resume first reads one, at
// which point the full DP is materialized once. O(1); it cannot fail.
func NewLazyCheckpoint(nt *NFATables, v *SeqView, align []automata.Symbol) *Checkpoint {
	return &Checkpoint{
		Align:  automata.CloneString(align),
		states: nt.States,
		n:      v.N,
		kq:     v.K * nt.States,
		nt:     nt,
		v:      v,
	}
}

// NewLazyCheckpointFrom is NewLazyCheckpoint with a derivation donor: a
// checkpoint whose alignment shares at least its first symbol with
// align (a prefix, a sibling, an extension). Columns z ≤ ℓ, for ℓ the
// two alignments' common prefix length, are identical in the two DPs —
// the exact-prefix dynamics up to a shared alignment prefix cannot
// depend on the symbols past it — so the deferred build shares the
// donor's and relaxes only the columns past ℓ: O(zone boundary band)
// per position instead of O(all columns), since only predecessors in the
// band z ≥ ℓ+1-MaxEmit can reach them (an edge advances z by at most
// MaxEmit). A cell id does not depend on the alignment, so each derived
// layer refers to the nearest fully relaxed layer down the donor chain,
// cut at column ℓ, as its root and copies only the cells up to ℓ that
// the donor stacked above that root; its own slab holds those and its
// band. A donor over other tables is not used: the build runs the full
// DP. The result is identical either way: a derived view
// holds a from-scratch build's layers cell for cell, in cell order. When
// the donor covers fewer positions than v (a handle carried from before
// an append), the remaining positions relax in full.
func NewLazyCheckpointFrom(nt *NFATables, v *SeqView, align []automata.Symbol, donor *Checkpoint) *Checkpoint {
	ck := NewLazyCheckpoint(nt, v, align)
	if donor != nil && donor.states == nt.States && donor.kq == ck.kq &&
		donor.n >= 1 && donor.n <= v.N && automata.CommonPrefix(align, donor.Align) >= 1 {
		ck.donor = donor
	}
	return ck
}

// Extendable reports whether ck can serve as the base of an extended
// checkpoint over nt and a view at least as long as the one ck was built
// against.
func (ck *Checkpoint) Extendable(nt *NFATables, v *SeqView) bool {
	return ck != nil && ck.states == nt.States && v.N >= ck.n
}

// NewExtendedLazyCheckpoint returns a lazy checkpoint over the grown
// view v that continues base's exact-prefix DP instead of re-running it.
// The exact-prefix DP is position-local, so base's retained layers are
// bit-identical to the first base.n layers of a from-scratch build over
// v. Materialization therefore aliases them from the first materialized
// view in base's chain: it copies their 24-byte headers, which point
// into that view's immutable slabs, and relaxes only the appended
// positions into a slab of its own. The DP work is O(Δ relaxed layers);
// only the header copy is O(n). When nothing in the chain has
// materialized, the full DP runs from position 0, so extension never
// forces prefix work that a from-scratch lazy handle would have
// deferred; a derived handle that never built (NewLazyCheckpointFrom)
// carries over as the same derivation over v, so it still shares its
// donor's columns over the positions the donor covers. base must satisfy
// Extendable(nt, v) and v must extend the view base was built against
// (SeqView.Extend / markov.Sequence.Extended); base is never mutated, so
// an enumerator over the old snapshot can keep serving from it
// concurrently. When v has base's own length, base itself is returned.
// The handle is extendable in turn: extension chains across any number
// of appends, and once a link materializes it drops its base, so a chain
// never retains more than one materialized view.
func NewExtendedLazyCheckpoint(nt *NFATables, v *SeqView, base *Checkpoint) *Checkpoint {
	if !base.Extendable(nt, v) {
		panic("kernel: NewExtendedLazyCheckpoint base is not extendable to the given view")
	}
	// Skip unmaterialized extension links: they carry no DP (both
	// materialization and FrontierBound would walk past them anyway), and
	// dropping them keeps chains short across many appends — a handle
	// that never materializes would otherwise add one dead link per
	// append and make every chain walk linear in the append count. A
	// plain lazy handle (no base) is kept: it owns the from-scratch build
	// inputs. The link is loaded before the view (see firstView).
	for next := base.base.Load(); next != nil && base.view.Load() == nil; next = base.base.Load() {
		base = next
	}
	if v.N == base.n {
		return base
	}
	ck := &Checkpoint{
		Align:  base.Align,
		states: nt.States,
		n:      v.N,
		kq:     base.kq,
		nt:     nt,
		v:      v,
	}
	base.mu.Lock()
	ck.donor = base.donor
	base.mu.Unlock()
	if ck.donor == nil {
		ck.base.Store(base)
	}
	return ck
}

// firstView returns the first checkpoint of the extension chain starting
// at c whose view is published, with that view; nil when none is. Each
// link is loaded before its view: ensureView publishes a view before it
// clears the link, so a cleared link guarantees a visible view.
func firstView(c *Checkpoint) (*Checkpoint, *ckView) {
	for c != nil {
		next := c.base.Load()
		if vw := c.view.Load(); vw != nil {
			return c, vw
		}
		c = next
	}
	return nil, nil
}

// FrontierAnchor returns m, the position count FrontierBound(maxN, ·)
// prices at: min(n, maxN), where n is the length the first materialized
// view in ck's extension chain covers. ok is false exactly when
// FrontierBound's is. A caller pricing many regions against one b prices
// each (ck, m) once, as FrontierBound(m, b): a view that materializes
// later in the chain is longer and holds the same layer at m-1, so the
// price of (ck, m) never changes.
func (ck *Checkpoint) FrontierAnchor(maxN int) (m int, ok bool) {
	c, vw := firstView(ck)
	if maxN < 1 || vw == nil {
		return 0, false
	}
	return min(c.n, maxN), true
}

// FrontierBound prices the zone frontier of ck against b: the maximum,
// over the cells of the layer at position m-1 of the first materialized
// view in ck's extension chain, of the cell's forward score plus b's
// potential of its (x, q) at m-1, where m = min(n, maxN) and n is the
// length that view covers. b must cover at least m positions. ok is
// false when maxN < 1 or no view in the chain has materialized; an empty
// layer prices at -Inf.
//
// The incremental ranked reseed uses this as an admissible anchor for
// runs still inside a subproblem's matched zone: every exact-prefix
// partial run alive at position m-1 appears in that layer, forward
// scores only decrease along a run (each step weight is a log
// probability ≤ 0), and the layer is complete because every build keeps
// every cell of the exact-prefix DP — so the bound
// covers the best completion of every such run even when the layer is
// several appends stale. When the view covers more than maxN positions,
// its interior layer at maxN-1 is exactly the zone frontier at that
// position (the DP is position-local), a tighter anchor than any older
// view's final layer.
func (ck *Checkpoint) FrontierBound(maxN int, b *Bounds) (bd float64, ok bool) {
	c, vw := firstView(ck)
	if maxN < 1 || vw == nil {
		return 0, false
	}
	i := min(c.n, maxN) - 1
	l := &vw.layers[i]
	row := b.Row(i)
	bd = math.Inf(-1)
	rc, oc := l.cells(i)
	rsc, osc := l.scores(i)
	kq := uint32(c.kq)
	for j, cell := range rc {
		if s := rsc[j] + row[uint32(cell)%kq]; s > bd {
			bd = s
		}
	}
	for j, cell := range oc {
		if s := osc[j] + row[uint32(cell)%kq]; s > bd {
			bd = s
		}
	}
	return bd, true
}

// ensureView returns the checkpoint's view, materializing the deferred
// DP on the first touch of a lazy handle. Concurrent first touches
// serialize on ck.mu (single-flight); every later caller takes the
// lock-free fast path. Publishing the view releases the donor and cuts
// the extension link, after the view is visible (see firstView). A
// cancelled materialization publishes nothing, so the next caller
// retries cleanly.
func (ck *Checkpoint) ensureView(p *Poll, sc *ConstrainScratch) (*ckView, error) {
	if vw := ck.view.Load(); vw != nil {
		return vw, nil
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if vw := ck.view.Load(); vw != nil {
		return vw, nil
	}
	if ck.nt == nil {
		panic("kernel: resume against a recycled checkpoint")
	}
	vw, built, err := materialize(p, ck, sc)
	if err != nil {
		return nil, err
	}
	ck.donor = nil // release for independent eviction; the DP is ours now
	ck.matLayers.Store(uint64(built))
	ck.view.Store(vw)
	ck.base.Store(nil)
	return vw, nil
}

// crossRec records a boundary-crossing transition: the checkpoint cell it
// left (layer index and position in that layer's cell list; layer -1
// means the transition fired off the initial distribution) and the
// transition-table edge taken, whose emission completes the constraint
// prefix and steps past it.
type crossRec struct {
	layer int32
	pi    int32
	edge  int32
}

// crossCand is one boundary-crossing candidate that survived the
// bounded resume's selection pass: the position and past-zone cell it
// lands on, its entry score, its score + potential upper bound, and the
// traceback record to replay if it survives the final threshold.
// Candidates are recorded in exactly the order the exhaustive sweep
// would inject them, so replaying the list preserves tie-breaking.
type crossCand struct {
	pos   int32
	cell  int32
	lp    float64
	bound float64
	rec   crossRec
}

// ConstrainScratch holds the reusable buffers of checkpoint
// materializations and resumes. The two use disjoint fields, so one
// scratch serves a resume together with the materialization it
// triggers, which runs before the resume touches its own fields. Builds
// relax into buf, which only grows, so they stop regrowing once it
// reaches their high-water mark; seal copies each build out exactly
// sized. Not safe for concurrent use; pass nil to draw from an internal
// pool.
type ConstrainScratch struct {
	f         frontier // build: z·K·|Q| + x·|Q|+q cell space
	xof, qof  []int32  // build: xq → (x, q) decode tables for the current (K, |Q|)
	xqK, xqS  int      // build: the (K, |Q|) the decode tables were sized for
	buf       ckSlab   // build: the layers being relaxed, before seal copies them out
	cur, next frontier // resume: past-zone (x·|Q|+q) cell space
	back      []int32  // resume: per-position past-zone backpointers of the swept positions
	cross     []crossRec
	cands     []crossCand // resume: selected crossing candidates, recycled across resolves
	surv      survivors   // resume: the survivor segment being built, or the best path's alone
	mark      []int32     // resume: cell → entry of the position survive is filling, else -1
	head      []int32     // resume: cell → index in a continued prior's Cells
	src, nsrc []int32     // resume: prior entries a compacting survive copies, per position
	free      []*ckView   // recycled views, whose header arrays and slabs builds reuse

	// resume: the nodes and states of the past-zone suffix a traceback
	// fills when no evidence is asked for.
	nodes  []automata.Symbol
	states []int
}

// Recycle retires ck and hands its materialized view, if any — header
// array and slab — to the scratch freelist, where the next
// materialization through the same scratch reuses whatever has room.
// Recycling ends the view's immutability: the caller must have dropped
// every reference to ck and to data obtained from it, and must never
// recycle a checkpoint other goroutines can still see (in particular,
// the handles of an extendable ranked enumerator, whose append successor
// shares them, are not recyclable). Nor may ck have served as a
// derivation donor, whose layers other views share as roots; no recycled
// slab ever is one, because only the sliding-window sweeper recycles and
// it never derives. A resume against a recycled checkpoint, touched or
// not, panics instead of rebuilding. Recycling into the internal pool is
// not possible — Recycle is only useful with an explicitly owned
// scratch, such as the sweeper's, whose per-window handles are private
// by construction.
func (sc *ConstrainScratch) Recycle(ck *Checkpoint) {
	if ck == nil {
		return
	}
	ck.mu.Lock()
	ck.nt, ck.v = nil, nil
	vw := ck.view.Swap(nil)
	ck.mu.Unlock()
	if vw != nil {
		sc.free = append(sc.free, vw)
	}
}

var constrainScratchPool = sync.Pool{New: func() any { return new(ConstrainScratch) }}

// crossOK reports whether emission w fired from matched-prefix count z
// crosses the constraint boundary admissibly: it completes align[:l] and
// its first past-boundary symbol is not forbidden.
func crossOK(align []automata.Symbol, l, z int, w []automata.Symbol, forb map[automata.Symbol]bool) bool {
	k := l - z
	if k < 0 || len(w) <= k {
		return false
	}
	for i := 0; i < k; i++ {
		if w[i] != align[z+i] {
			return false
		}
	}
	return !forb[w[k]]
}

// zAfter returns the matched-prefix count transition t of nt advances z
// to, or -1 when its emission stops the output being an exact prefix of
// align.
func zAfter(nt *NFATables, align []automata.Symbol, z, t int32) int32 {
	switch code := nt.EmitSym[t]; {
	case code == -1:
		return z
	case code >= 0:
		if code == alignCode(align, z) {
			return z + 1
		}
		return -1
	}
	w := nt.Emit[nt.EmitPtr[t]:nt.EmitPtr[t+1]]
	if int(z)+len(w) > len(align) {
		return -1
	}
	for i, s := range w {
		if align[int(z)+i] != s {
			return -1
		}
	}
	return z + int32(len(w))
}

// alignCode returns align[z] as an emission code (NFATables.EmitSym), or
// -3, which no transition's code equals, when z = |align|.
func alignCode(align []automata.Symbol, z int32) int32 {
	if int(z) < len(align) {
		return int32(align[z])
	}
	return -3
}

// decodeTables returns the xq → (x, q) lookup tables for a K·|Q| product
// space, rebuilding the scratch-cached ones when the shape changes. They
// replace an integer division per relaxed cell in the build's hot loop.
func decodeTables(sc *ConstrainScratch, k, states int) (xof, qof []int32) {
	if sc.xqK == k && sc.xqS == states {
		return sc.xof, sc.qof
	}
	n := k * states
	if cap(sc.xof) < n {
		sc.xof = make([]int32, n)
		sc.qof = make([]int32, n)
	}
	sc.xof, sc.qof = sc.xof[:n], sc.qof[:n]
	for x := 0; x < k; x++ {
		for q := 0; q < states; q++ {
			sc.xof[x*states+q] = int32(x)
			sc.qof[x*states+q] = int32(q)
		}
	}
	sc.xqK, sc.xqS = k, states
	return sc.xof, sc.qof
}

// materialize runs ck's exact-prefix Viterbi DP over ck.v and returns the
// sealed view plus the number of layers it relaxed: every position it
// does not alias, fewer only when the exact-prefix language dies early.
// Each position's layer has one of three sources:
//
//   - positions below the first materialized view in ck's base chain
//     copy that view's layer headers (extension; see
//     NewExtendedLazyCheckpoint) — bit-identical to relaxing them, since
//     the DP is position-local and every layer is stored in cell order;
//   - positions the donor covers share the donor's columns
//     z ≤ ℓ = lcp(donor.Align, Align) and relax only the boundary band
//     into the columns past ℓ (derivation; see NewLazyCheckpointFrom):
//     the predecessors z ≥ band, the previous layer's tail from the
//     band's first cell;
//   - every other position relaxes its predecessors in full.
//
// Predecessors relax in stored order, and relax keeps the first arrival
// of a maximum, which is what walkPrefix relies on. Layers relax into the
// scratch's build buffer, read back through it until seal copies them
// into the view's own slab. A recycled view lends its header array and
// slab and leaves the freelist only on completion, so a cancelled build
// returns the error and leaves the scratch as it was (sc.f is empty at
// every poll point: snapshot resets it).
func materialize(p *Poll, ck *Checkpoint, sc *ConstrainScratch) (*ckView, int, error) {
	var alias []ckLayer
	if c, vw := firstView(ck.base.Load()); vw != nil {
		alias = vw.layers[:c.n]
	}
	// The donor materializes first, through the same scratch, before this
	// build claims the scratch's build fields.
	var donor []ckLayer
	dlen := -1
	if ck.donor != nil {
		dvw, err := ck.donor.ensureView(p, sc)
		if err != nil {
			return nil, 0, err
		}
		donor = dvw.layers[:ck.donor.n]
		dlen = automata.CommonPrefix(ck.donor.Align, ck.Align)
	}

	nt, v := ck.nt, ck.v
	align := ck.Align
	states := nt.States
	kq := ck.kq
	kq32 := int32(kq)
	sc.f.ensure(kq * (len(align) + 1))
	sc.f.reset()
	xof, qof := decodeTables(sc, v.K, states)
	off := nt.Off
	syms := nt.Syms
	emitSym := nt.EmitSym
	band := int32(max(dlen+1-nt.MaxEmit, 0))

	buf := &sc.buf
	buf.cells, buf.score, buf.roots = buf.cells[:0], buf.score[:0], buf.roots[:0]
	free := len(sc.free)
	var vw *ckView
	if free > 0 {
		vw = sc.free[free-1]
	} else {
		vw = &ckView{slab: new(ckSlab)}
	}
	layers := vw.layers
	if cap(layers) < v.N {
		layers = make([]ckLayer, v.N)
	}
	layers = layers[:v.N]
	clear(layers)
	copy(layers, alias)

	built := 0
	for i := len(alias); i < v.N; i++ {
		if err := p.Step(); err != nil {
			clear(buf.roots)
			return nil, 0, err
		}
		// zmin is the highest column this position does not relax into:
		// -1 relaxes every column, a donor's common prefix length only the
		// columns past it. A transition whose emission leaves the
		// alignment advances to -1, so one compare drops it too.
		zmin := int32(-1)
		var d *ckLayer
		if i < len(donor) {
			zmin, d = int32(dlen), &donor[i]
		}
		if i == 0 {
			for ii, x := range v.InitIdx {
				lp := math.Log(v.InitVal[ii])
				elo, ehi := nt.Edges(int(nt.Start), int(x))
				for e := elo; e < ehi; e++ {
					z2 := zAfter(nt, align, 0, e)
					if z2 <= zmin {
						continue
					}
					sc.f.relax(z2*kq32+int32(int(x)*states+int(nt.Succ[e])), lp)
				}
			}
		} else {
			pl := &layers[i-1]
			if pl.n == 0 {
				break // the exact-prefix language died; later layers stay empty
			}
			// A built predecessor reads the build buffer, which only grows
			// at the snapshot below, after this iteration is done with it.
			// On a derived position only the band can reach a new column.
			rc, oc := pl.cells(i - 1)
			rsc, osc := pl.scores(i - 1)
			a := 0
			if d != nil {
				a = below(rc, oc, band*kq32)
			}
			ra := min(a, len(rc))
			st := &v.Steps[i-1]
			for part, pcells := range [2][]int32{rc[ra:], oc[a-ra:]} {
				pscore := rsc[ra:]
				if part == 1 {
					pscore = osc[a-ra:]
				}
				for j, pcell := range pcells {
					base := pscore[j]
					z := pcell / kq32
					az := alignCode(align, z)
					xq := int(pcell - z*kq32)
					x := int(xof[xq])
					q := int(qof[xq])
					for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
						y := int(st.Col[e])
						lp := base + st.LogVal[e]
						ti := q*syms + y
						tlo, thi := off[ti], off[ti+1]
						yBase := y * states
						for t := tlo; t < thi; t++ {
							z2 := z
							if code := emitSym[t]; code == az {
								z2++
							} else if code == -2 {
								z2 = zAfter(nt, align, z, t)
							} else if code != -1 {
								continue
							}
							if z2 <= zmin {
								continue
							}
							sc.f.relax(z2*kq32+int32(yBase+int(nt.Succ[t])), lp)
						}
					}
				}
			}
		}
		buf.snapshot(&layers[i], i, &sc.f, kq32, d, (zmin+1)*kq32)
		built++
	}
	if free > 0 {
		sc.free[free-1], sc.free = nil, sc.free[:free-1]
	}
	vw.layers = layers
	vw.slab.seal(buf, layers[len(alias):])
	return vw, built, nil
}

// walkPrefix fills nodes and states for positions 0..li along the run
// the DP kept into cell j of layer li, over nt and v. Each step back
// scans the previous layer in stored order for the first cell whose
// score plus the step weight into the current cell equals the cell's
// score and whose transition reaches the cell's (state, z): the
// predecessor materialize kept, since it relaxes predecessors in that
// order and relax keeps the first arrival of a maximum. That holds on
// fresh, derived and extended views alike — predecessors below a derived
// band cannot reach a new column, and z never decreases along a run — so
// finding none is a broken invariant.
func (ck *Checkpoint) walkPrefix(nt *NFATables, v *SeqView, layers []ckLayer, li, j int, nodes []automata.Symbol, states []int) {
	kq := int32(ck.kq)
	s, k := layers[li].loc(li, j)
	cell, score := s.cells[k], s.score[k]
	for ; ; li-- {
		z := cell / kq
		y, q2 := int(cell-z*kq)/ck.states, int(cell-z*kq)%ck.states
		nodes[li], states[li] = automata.Symbol(y), q2
		if li == 0 {
			return
		}
		pl, st := &layers[li-1], &v.Steps[li-1]
		found := false
		for pj := 0; pj < int(pl.n) && !found; pj++ {
			ps, pk := pl.loc(li-1, pj)
			pcell := ps.cells[pk]
			pz := pcell / kq
			if pz > z {
				break // cell order: every later predecessor lies in a higher column
			}
			xq := int(pcell - pz*kq)
			x, q := xq/ck.states, xq%ck.states
			for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
				if int(st.Col[e]) != y || ps.score[pk]+st.LogVal[e] != score {
					continue
				}
				lo, hi := nt.Edges(q, y)
				for t := lo; t < hi; t++ {
					if int(nt.Succ[t]) == q2 && zAfter(nt, ck.Align, pz, t) == z {
						cell, score, found = pcell, ps.score[pk], true
						break
					}
				}
				break
			}
		}
		if !found {
			panic("kernel: checkpoint walk-back found no predecessor")
		}
	}
}

// exactAnswer assembles the answer of a run that never leaves the
// matched zone: output align[:l] and, with evidence, the nodes and
// states walked back through the checkpoint from cell j of the final
// layer, over nt and v.
func (ck *Checkpoint) exactAnswer(nt *NFATables, v *SeqView, layers []ckLayer, j, l int, evidence bool) (out, nodes []automata.Symbol, states []int) {
	if evidence {
		nodes = make([]automata.Symbol, len(layers))
		states = make([]int, len(layers))
		ck.walkPrefix(nt, v, layers, len(layers)-1, j, nodes, states)
	}
	return automata.CloneString(ck.Align[:l]), nodes, states
}

// ResumeState is the final past-zone frontier of one constrained
// resume: the active (x·|Q|+q) cells at the last position with their
// forward log scores, and the sequence length N the resolve ran over.
// The incremental ranked path retains one per resolved subproblem:
// after an append, max over the frontier of score + potential-at-(N-1)
// over the grown sequence is an exact completion bound for every run of
// the subproblem's region that had already crossed its constraint
// boundary by position N-1 (the frontier is complete — capture requires
// an unpruned sweep — and the potentials are exact backward optima).
// An empty frontier is itself exact: ExactOnly resolves and resolves
// with no viable boundary crossing have no past-zone runs at all.
// Cell order is unspecified; the bound is a max, so order never matters.
//
// A state captured by a completed sweep is also continuable: it keeps
// the survivor store of the sweep (see survivors), so a later resolve of
// the same constraint over an appended view re-runs only the appended
// positions and traces back through the store, O(Δ) in the appended
// suffix instead of O(n). The store holds only the paths ending in
// Cells, about n + |Cells|·(distance until they merge) int32 pairs, not
// the sweep's n·K·|Q| backpointers.
type ResumeState struct {
	N      int
	Cells  []int32
	Scores []float64

	// surv is the newest segment of the survivor store; Cells[j]'s path
	// starts at entry surv.base+j. nil when Cells is empty. The store's
	// crossing records index checkpoint layers below N, so vid — the view
	// id of the traced checkpoint's layer N-1 — admits a continuation
	// only against a checkpoint holding those same layers. View ids start
	// at 1, so a state no completed sweep captured never continues.
	surv     *survivors
	pastSize int
	vid      uint64
}

// survivors is one segment of a resume's survivor store: the traceback
// of the best paths that end in its final past-zone frontier, and of no
// other cell. Entries have global indices; entry g is the int32 pair
// ent[2(g-base)], ent[2(g-base)+1] = (past-zone cell, parent), where a
// parent ≥ 0 is the global index of the path's entry one position
// earlier and a negative parent -(k+1) ends the path at the crossing
// record cross[k] of the same segment. Each position's entries are
// distinct cells of one segment, and a segment opens with the frontier
// paths' heads in frontier order.
//
// A capture writes one segment. A continuation writes a segment for the
// positions it swept only, whose first position links to the prior's
// heads; prev is then the prior's newest segment, shared rather than
// copied (segments are immutable once captured). Heads the continuation
// no longer reaches stay behind in the shared segments, so once the
// entries appended since the chain's root segment outgrow the root
// (root entries plus slack), the next continuation copies the paths it
// reaches into a fresh root instead: dead entries stay within a constant
// factor of the live ones, and the copy is amortized over the appends
// that grew the chain.
type survivors struct {
	prev  *survivors
	base  int32
	root  int32 // entries of the chain's root segment
	ent   []int32
	cross []crossRec
}

// total is the number of entries in the chain ending at s.
func (s *survivors) total() int32 { return s.base + int32(len(s.ent)/2) }

// survivorSlack is the number of entries a chain may append past twice
// its root before a continuation compacts it (see survivors).
const survivorSlack = 64

// trace fills nodes and states along the path that starts at entry g at
// position i, back to its crossing, and returns the crossing record and
// the position the path crossed at.
func (s *survivors) trace(g int32, i, nstates int, nodes []automata.Symbol, states []int) (crossRec, int) {
	for seg := s; ; i-- {
		for g < seg.base {
			seg = seg.prev
		}
		k := 2 * (g - seg.base)
		cell, parent := int(seg.ent[k]), seg.ent[k+1]
		nodes[i] = automata.Symbol(cell / nstates)
		states[i] = cell % nstates
		if parent < 0 {
			return seg.cross[-parent-1], i
		}
		g = parent
	}
}

// ResumeConstrainedBoundedCtx solves the constrained top-answer problem
// — the maximum-probability accepting run whose output c admits —
// against a checkpoint whose alignment string extends c.Prefix. It
// returns the answer output and its log probability; ok is false when c
// admits no answer over a positive-probability world. The run's
// evidence is not assembled (ConstrainedViterbi returns it), so a
// resume allocates only its output.
//
// With b non-nil the resume prunes by weight pushing: crossing
// candidates are selected against a running bound on the optimum and the
// past-zone sweep skips every cell that cannot reach it. Exact and
// bit-identical to the exhaustive resume (see the file comment); nil
// disables pruning. Cancellation is step-granular over the past-zone DP
// and any deferred checkpoint materialization (the ExactOnly fast path
// against an already materialized view only reads the final retained
// layer and completes regardless).
func ResumeConstrainedBoundedCtx(ctx context.Context, nt *NFATables, v *SeqView, ck *Checkpoint, c transducer.Constraint, b *Bounds, sc *ConstrainScratch) (out []automata.Symbol, logp float64, ok bool, err error) {
	out, _, _, logp, ok, _, err = resumeConstrained(NewPoll(ctx), nt, v, ck, c, b, nil, nil, sc, false)
	return out, logp, ok, err
}

// ResumeConstrainedIncCtx is the unpruned resume that captures its
// final past-zone frontier and survivor store into rs (reusing its
// frontier slices), for retention across appends — the sweep never
// prunes, because pruning leaves holes in the frontier, which would make
// the retained bound inadmissible. The store keeps only the best paths
// into that frontier, as int32 (cell, parent) pairs plus one crossing
// record per path: about n + |frontier|·(distance until the paths merge)
// entries, against the n·K·|Q| backpointers the sweep wrote. On error rs
// is left empty and must not be retained.
//
// It continues incrementally: when prior is a capture of the same
// constraint over a shorter prefix of v (the sequence has grown since)
// against a checkpoint whose layers ck shares — ck extends it, so the
// crossing records of prior index the same cells — the past-zone sweep
// restarts from prior's retained frontier and relaxes only positions
// [prior.N, v.N), reading crossing candidates off the extended
// checkpoint's appended layers. rs's store is then a segment for those
// positions linked to prior's store, which it shares, so the
// continuation copies nothing O(n) from prior; once the segments
// appended since the chain's last full copy outgrow it, a continuation
// copies the live paths into a fresh store instead (see survivors). The
// result — answer, evidence, score, and the freshly captured rs — is
// bit-identical to the full sweep: per-cell maxima are
// order-independent, each path's score accumulates left to right
// exactly as the full sweep would, the DP at positions before prior.N
// cannot depend on the appended suffix, and the per-position
// advance-then-inject relax order is preserved. continued reports which
// path ran; the full sweep runs whenever rs or the prior is missing,
// the prior was never captured by a completed sweep, is not strictly
// older than v, is shaped for different tables, or was captured against
// layers ck does not share (a checkpoint evicted and rebuilt, or one of
// another alignment), or the constraint is ExactOnly (whose final-layer
// read needs no sweep at all). The caller must guarantee prior really
// came from a resolve of c — the ranked enumerator's Lawler tree keeps
// each capture with the region whose resolve took it. Like
// ResumeConstrainedBoundedCtx, it returns no evidence.
func ResumeConstrainedIncCtx(ctx context.Context, nt *NFATables, v *SeqView, ck *Checkpoint, c transducer.Constraint, prior, rs *ResumeState, sc *ConstrainScratch) (out []automata.Symbol, logp float64, ok bool, continued bool, err error) {
	out, _, _, logp, ok, continued, err = resumeConstrained(NewPoll(ctx), nt, v, ck, c, nil, prior, rs, sc, false)
	return out, logp, ok, continued, err
}

// resumeConstrained is the one past-zone sweep behind both resume entry
// points and ConstrainedViterbi: a full sweep from position 0, or —
// given a prior it may continue (see ResumeConstrainedIncCtx) — a
// continuation from prior.N seeded with prior's frontier, selecting
// crossing candidates only at the positions it sweeps and tracing back
// through prior's survivor store below them. With evidence it also
// returns the run's nodes and states, walking the checkpoint back
// through the matched zone; without, nodes and states are
// nil and only the past-zone suffix the output needs is traced, into
// scratch rows.
func resumeConstrained(p *Poll, nt *NFATables, v *SeqView, ck *Checkpoint, c transducer.Constraint, b *Bounds, prior, rs *ResumeState, sc *ConstrainScratch, evidence bool) (out, nodes []automata.Symbol, states []int, logp float64, ok, continued bool, err error) {
	if ck.states != nt.States || ck.n != v.N {
		panic("kernel: resume checkpoint was built against different tables or sequence")
	}
	if rs != nil {
		if b != nil {
			panic("kernel: frontier capture requires an unpruned resume")
		}
		rs.N = v.N
		rs.Cells = rs.Cells[:0]
		rs.Scores = rs.Scores[:0]
		rs.surv, rs.pastSize, rs.vid = nil, 0, 0
	}
	if !automata.HasPrefix(ck.Align, c.Prefix) {
		panic("kernel: resume constraint prefix does not align with checkpoint")
	}
	l := len(c.Prefix)
	align := ck.Align
	kq, kq32 := ck.kq, int32(ck.kq)
	neg := math.Inf(-1)

	if sc == nil {
		sc = constrainScratchPool.Get().(*ConstrainScratch)
		defer constrainScratchPool.Put(sc)
	}
	// One view serves the whole call: traceback records index into this
	// view's layer cell lists. A lazy handle materializes its full DP
	// here on first touch; the published view never changes afterwards.
	vw, err := ck.ensureView(p, sc)
	if err != nil {
		return nil, nil, nil, neg, false, false, err
	}
	layers := vw.layers

	// The exact answer reads only the final layer. It is found first: an
	// extension resume's final comparison needs it too, and its score
	// seeds the selection bound.
	exactBest, exactIdx := neg, -1
	if c.Mode != transducer.ExtensionsOnly {
		last := &layers[v.N-1]
		a, e := last.window(v.N-1, l, l, kq32)
		for j := a; j < e; j++ {
			s, k := last.loc(v.N-1, j)
			if nt.Accept[int(s.cells[k])%nt.States] && s.score[k] > exactBest {
				exactBest, exactIdx = s.score[k], j
			}
		}
	}
	if c.Mode == transducer.ExactOnly {
		if exactIdx < 0 {
			return nil, nil, nil, neg, false, false, nil
		}
		out, nodes, states = ck.exactAnswer(nt, v, layers, exactIdx, l, evidence)
		return out, nodes, states, exactBest, true, false, nil
	}

	pastSize := v.K * nt.States
	sc.cur.ensure(pastSize)
	sc.next.ensure(pastSize)
	sc.cur.reset()
	sc.next.reset()
	// start is the first position the sweep relaxes: 0, or prior.N for a
	// continuation, whose frontier is prior's and whose traceback below
	// start reads prior's survivor store. Its crossing records index
	// layers below prior.N, so ck must hold the very layers prior was
	// traced against: the same view id at layer prior.N-1. sc.head maps
	// each seeded cell to its index in prior.Cells, hence to its head
	// entry in the store.
	start := 0
	if rs != nil && prior != nil && prior.N >= 1 && prior.N < v.N &&
		prior.pastSize == pastSize && layers[prior.N-1].s.vid == prior.vid {
		start, continued = prior.N, true
		if len(sc.head) < pastSize {
			sc.head = make([]int32, pastSize)
		}
		for i, cell := range prior.Cells {
			sc.cur.relax(cell, prior.Scores[i])
			sc.head[cell] = int32(i)
		}
	}
	sc.cross = sc.cross[:0]
	sc.cands = sc.cands[:0]

	// Phase 1: select the boundary-crossing candidates in exactly the
	// order the exhaustive sweep would inject them — position 0 straight
	// off the initial distribution (the whole prefix plus at least one
	// symbol inside a single emission), later positions off the z-window
	// of each checkpoint layer (only cells with l−MaxEmit < z ≤ l can
	// cross; they are one run of the cell-ordered layer, found by binary
	// search, in stored order).
	// With bounds, each candidate's score + potential is exact, so their
	// running maximum L is the constrained optimum so far and anything
	// below its threshold can be dropped at enumeration time: L only
	// grows, so such a candidate would fail the final threshold too, and
	// it cannot raise L by definition. The threshold slack covers the
	// float-association error between a forward DP sum and the two-term
	// score + potential bound; both are within a few ulps of the real
	// path weight, so Slack's relative 1e-9 dwarfs it.
	prune := b != nil
	L := exactBest
	tau := neg
	if prune {
		tau = L - Slack(L)
	}
	var prunedCt, visitedCt, skipCands, skipCells uint64
	if start == 0 {
		for ii, x := range v.InitIdx {
			lp := math.Log(v.InitVal[ii])
			elo, ehi := nt.Edges(int(nt.Start), int(x))
			for e := elo; e < ehi; e++ {
				w := nt.Emit[nt.EmitPtr[e]:nt.EmitPtr[e+1]]
				if !crossOK(align, l, 0, w, c.Forbidden) {
					continue
				}
				cell := int32(int(x)*nt.States + int(nt.Succ[e]))
				cd := crossCand{pos: 0, cell: cell, lp: lp, rec: crossRec{layer: -1, pi: int32(ii), edge: e}}
				if prune {
					cd.bound = lp + b.pot[cell] // row 0
					if cd.bound > L {
						L = cd.bound
						tau = L - Slack(L)
					} else if cd.bound < tau {
						skipCands++
						continue
					}
				}
				sc.cands = append(sc.cands, cd)
			}
		}
	}
	winLo := l - nt.MaxEmit + 1
	ntOff := nt.Off
	syms := nt.Syms
	for i := max(start, 1); i < v.N; i++ {
		if err := p.Step(); err != nil {
			sc.cur.reset()
			return nil, nil, nil, neg, false, continued, err
		}
		prevLayer := &layers[i-1]
		if int(prevLayer.maxZ)+nt.MaxEmit <= l || prevLayer.n == 0 {
			continue
		}
		wa, wb := prevLayer.window(i-1, winLo, l, kq32)
		if wa == wb {
			continue
		}
		st := &v.Steps[i-1]
		var prow0, prow1 []float64
		if prune {
			prow0 = b.pot[(i-1)*pastSize : i*pastSize]
			prow1 = b.pot[i*pastSize : (i+1)*pastSize]
		}
		for pi := wa; pi < wb; pi++ {
			s, k := prevLayer.loc(i-1, pi)
			pcell, base := s.cells[k], s.score[k]
			z := int(pcell / kq32)
			xq := int(pcell) - z*kq
			if prune && base+prow0[xq] < tau {
				// The backward recurrence makes score + past-zone
				// potential an upper bound on every candidate this cell
				// can produce, so the whole edge fan-out is skipped.
				skipCells++
				continue
			}
			x := xq / nt.States
			q := xq - x*nt.States
			for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
				y := int(st.Col[e])
				lp := base + st.LogVal[e]
				ti := q*syms + y
				tlo, thi := ntOff[ti], ntOff[ti+1]
				for t := tlo; t < thi; t++ {
					w := nt.Emit[nt.EmitPtr[t]:nt.EmitPtr[t+1]]
					if !crossOK(align, l, z, w, c.Forbidden) {
						continue
					}
					cell := int32(y*nt.States + int(nt.Succ[t]))
					cd := crossCand{pos: int32(i), cell: cell, lp: lp, rec: crossRec{layer: int32(i - 1), pi: int32(pi), edge: t}}
					if prune {
						cd.bound = lp + prow1[cell]
						if cd.bound > L {
							L = cd.bound
							tau = L - Slack(L)
						} else if cd.bound < tau {
							skipCands++
							continue
						}
					}
					sc.cands = append(sc.cands, cd)
				}
			}
		}
	}
	selCands := uint64(len(sc.cands))
	if prune && L == neg {
		sc.cands = sc.cands[:0] // no candidate has an accepting completion
	}

	// Phase 2: the past-zone sweep, advancing before injecting at each
	// position (ties keep the incumbent, so this ordering is part of the
	// determinism contract) and sorting each layer into canonical order
	// before expansion. tau is final here: L stopped growing with the
	// last candidate. The sweep stops once the frontier is empty and no
	// candidate is left: nothing can reach the past zone after that.
	// Position i's backpointer row is back[(i-start)·pastSize:]; a
	// crossing's entry is -(k+1) for its record sc.cross[k].
	rows := v.N - start
	if cap(sc.back) < rows*pastSize {
		sc.back = make([]int32, rows*pastSize)
	}
	back := sc.back[:rows*pastSize]
	ci := 0
	for i := start; i < v.N && (len(sc.cur.list) > 0 || ci < len(sc.cands)); i++ {
		if err := p.Step(); err != nil {
			sc.cur.reset()
			sc.next.reset()
			return nil, nil, nil, neg, false, continued, err
		}
		hasCand := ci < len(sc.cands) && int(sc.cands[ci].pos) == i
		if len(sc.cur.list) == 0 && !hasCand {
			continue // before the first surviving crossing: O(1) per position
		}
		backRow := back[(i-start)*pastSize : (i-start+1)*pastSize]
		if len(sc.cur.list) > 0 {
			// Never at position 0: a full sweep starts with an empty frontier.
			st := &v.Steps[i-1]
			sc.cur.sortList()
			var prow0, prow1 []float64
			if prune {
				prow0 = b.pot[(i-1)*pastSize : i*pastSize]
				prow1 = b.pot[i*pastSize : (i+1)*pastSize]
			}
			for _, idx := range sc.cur.list {
				base := sc.cur.val[idx]
				if prune {
					if base+prow0[idx] < tau {
						prunedCt++
						continue
					}
					visitedCt++
				}
				x := int(idx) / nt.States
				q := int(idx) - x*nt.States
				for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
					y := int(st.Col[e])
					lp := base + st.LogVal[e]
					ti := q*syms + y
					tlo, thi := ntOff[ti], ntOff[ti+1]
					for t := tlo; t < thi; t++ {
						cell := int32(y*nt.States + int(nt.Succ[t]))
						if prune && lp+prow1[cell] < tau {
							continue
						}
						if sc.next.relax(cell, lp) {
							backRow[cell] = idx
						}
					}
				}
			}
		}
		for ; ci < len(sc.cands) && int(sc.cands[ci].pos) == i; ci++ {
			cd := &sc.cands[ci]
			if prune && cd.bound < tau {
				prunedCt++
				continue
			}
			if sc.next.relax(cd.cell, cd.lp) {
				sc.cross = append(sc.cross, cd.rec)
				backRow[cd.cell] = -int32(len(sc.cross))
			}
		}
		sc.cur, sc.next = sc.next, sc.cur
		sc.next.reset()
	}
	if prune {
		b.addStats(prunedCt, visitedCt, selCands, skipCands, skipCells)
	}

	// Final argmax with canonical tie-breaking: among equal scores the
	// smaller cell id wins, independent of frontier order.
	best, bestCell, bestAt := neg, int32(-1), -1
	for j, idx := range sc.cur.list {
		if !nt.Accept[int(idx)%nt.States] {
			continue
		}
		if s := sc.cur.val[idx]; s > best || (s == best && idx < bestCell) {
			best, bestCell, bestAt = s, idx, j
		}
	}
	// The traceback reads a survivor store: a capture's own, holding the
	// paths of the whole final frontier (complete because the sweep ran
	// unpruned) and continuing prior's, or else a scratch one holding the
	// best cell's path alone. Both are built before the reset below
	// releases the frontier.
	surv := &sc.surv
	head := int32(0)
	if rs != nil {
		rs.Cells = append(rs.Cells, sc.cur.list...)
		for _, idx := range sc.cur.list {
			rs.Scores = append(rs.Scores, sc.cur.val[idx])
		}
		rs.pastSize, rs.vid = pastSize, layers[v.N-1].s.vid
		if len(sc.cur.list) > 0 {
			var ps *survivors
			if continued {
				ps = prior.surv
			}
			sc.survive(sc.cur.list, v.N, start, pastSize, back, ps)
			rs.surv = &survivors{prev: surv.prev, base: surv.base, root: surv.root,
				ent: slices.Clone(surv.ent), cross: slices.Clone(surv.cross)}
			surv.prev = nil // the scratch must not pin prior's chain
			surv, head = rs.surv, rs.surv.base+int32(bestAt)
		}
	} else if bestCell >= 0 && (exactIdx < 0 || exactBest < best) {
		sc.survive(sc.cur.list[bestAt:bestAt+1], v.N, start, pastSize, back, nil)
	}
	sc.cur.reset()
	if exactIdx >= 0 && exactBest >= best {
		out, nodes, states = ck.exactAnswer(nt, v, layers, exactIdx, l, evidence)
		return out, nodes, states, exactBest, true, continued, nil
	}
	if bestCell < 0 {
		return nil, nil, nil, neg, false, continued, nil
	}

	if evidence {
		nodes = make([]automata.Symbol, v.N)
		states = make([]int, v.N)
	} else {
		sc.nodes = slices.Grow(sc.nodes[:0], v.N)[:v.N]
		sc.states = slices.Grow(sc.states[:0], v.N)[:v.N]
		nodes, states = sc.nodes, sc.states
	}
	rec, crossPos := surv.trace(head, v.N-1, nt.States, nodes, states)
	z := 0
	if rec.layer >= 0 {
		s, k := layers[rec.layer].loc(int(rec.layer), int(rec.pi))
		z = int(s.cells[k]) / kq
		if evidence {
			ck.walkPrefix(nt, v, layers, int(rec.layer), int(rec.pi), nodes, states)
		}
	}
	w := nt.Emit[nt.EmitPtr[rec.edge]:nt.EmitPtr[rec.edge+1]]
	// MaxEmit bounds each remaining position's emission, so the answer is
	// assembled in one allocation instead of append-doubling regrowth.
	out = make([]automata.Symbol, 0, z+len(w)+(v.N-1-crossPos)*nt.MaxEmit)
	out = append(out, align[:z]...)
	out = append(out, w...)
	// Past-zone emissions follow the same first-matching-edge rule as
	// EmitRun (parallel edges with different emissions score identically,
	// so the first is the canonical representative).
	q := states[crossPos]
	for j := crossPos + 1; j < v.N; j++ {
		lo, hi := nt.Edges(q, int(nodes[j]))
		for e := lo; e < hi; e++ {
			if int(nt.Succ[e]) == states[j] {
				out = append(out, nt.Emit[nt.EmitPtr[e]:nt.EmitPtr[e+1]]...)
				break
			}
		}
		q = states[j]
	}
	if !evidence {
		nodes, states = nil, nil
	}
	return out, nodes, states, best, true, continued, nil
}

// survive rebuilds sc.surv as the survivor segment of the paths that
// end in heads, the final frontier cells at position n-1, walking them
// back one position at a time and merging paths that meet in a cell.
// Positions [start, n) read the sweep's backpointer rows back (pastSize
// wide, -(k+1) naming the sweep's crossing record sc.cross[k]); each
// record a path ends at is copied into the segment. A path that reaches
// position start-1 continues the store of the prior whose frontier
// seeded the sweep (sc.head maps its cell to its head there): it links
// to that head, or, once prior's chain is due for compaction (see
// survivors), walks on through prior's store and copies the entries it
// reaches, so the segment becomes a root holding the live paths alone.
// The segment shares prior only when some path links to it.
func (sc *ConstrainScratch) survive(heads []int32, n, start, pastSize int, back []int32, prior *survivors) {
	dst := &sc.surv
	compact := prior != nil && prior.total() > 2*prior.root+survivorSlack
	if len(sc.mark) < pastSize {
		sc.mark = make([]int32, pastSize)
		for i := range sc.mark {
			sc.mark[i] = -1
		}
	}
	mark := sc.mark
	base := int32(0)
	if prior != nil && !compact {
		base = prior.total()
	}
	ent, xs := dst.ent[:0], dst.cross[:0]
	for _, c := range heads {
		ent = append(ent, c, 0)
	}
	// src holds, for the entries of a level below start, the index of the
	// prior entry each one copies; lseg is the prior segment that level
	// lies in (one segment holds all of a position's entries).
	src, nsrc := sc.src[:0], sc.nsrc[:0]
	lseg, pseg := prior, prior
	linked := false
	for i, lo, hi := n-1, 0, len(heads); lo < hi; i-- {
		for e := lo; e < hi; e++ {
			var pcell, pg int32
			if i >= start {
				bk := back[(i-start)*pastSize+int(ent[2*e])]
				if bk < 0 {
					xs = append(xs, sc.cross[-bk-1])
					ent[2*e+1] = -int32(len(xs))
					continue
				}
				pcell = bk
				if i == start {
					pg = prior.base + sc.head[bk]
					if !compact {
						ent[2*e+1] = pg
						linked = true
						continue
					}
					pseg = prior
				}
			} else {
				g := src[e-lo]
				k := 2 * (g - lseg.base)
				if pg = lseg.ent[k+1]; pg < 0 {
					xs = append(xs, lseg.cross[-pg-1])
					ent[2*e+1] = -int32(len(xs))
					continue
				}
				for pseg = lseg; pg < pseg.base; {
					pseg = pseg.prev
				}
				pcell = pseg.ent[2*(pg-pseg.base)]
			}
			m := mark[pcell]
			if m < 0 {
				m = int32(len(ent) / 2)
				mark[pcell] = m
				ent = append(ent, pcell, 0)
				if i <= start {
					nsrc = append(nsrc, pg)
				}
			}
			ent[2*e+1] = base + m
		}
		lo, hi = hi, len(ent)/2
		for e := lo; e < hi; e++ {
			mark[ent[2*e]] = -1
		}
		src, nsrc, lseg = nsrc, src[:0], pseg
	}
	sc.src, sc.nsrc = src[:0], nsrc[:0]
	if prior != nil && !compact && !linked {
		// No path reached back into prior: the segment is a root of its own.
		for k := 1; k < len(ent); k += 2 {
			if ent[k] >= 0 {
				ent[k] -= base
			}
		}
		base = 0
	}
	dst.ent, dst.cross, dst.base = ent, xs, base
	if linked {
		dst.prev, dst.root = prior, prior.root
	} else {
		dst.prev, dst.root = nil, int32(len(ent)/2)
	}
}

// ConstrainedViterbi solves the constrained top-answer problem from
// scratch: a resume against a fresh checkpoint handle aligned to the
// constraint's own prefix, pruned by b when it is non-nil (nil runs the
// exhaustive sweep). Besides the answer and its log
// probability it returns the run's evidence: the node string and the
// visited transducer states. The checkpoint is discarded; enumeration
// layers that reuse checkpoints across Lawler children call
// NewLazyCheckpoint and ResumeConstrainedBoundedCtx directly, and get no
// evidence.
func ConstrainedViterbi(nt *NFATables, v *SeqView, c transducer.Constraint, b *Bounds, sc *ConstrainScratch) (out, nodes []automata.Symbol, states []int, logp float64, ok bool) {
	out, nodes, states, logp, ok, _, _ = resumeConstrained(nil, nt, v, NewLazyCheckpoint(nt, v, c.Prefix), c, b, nil, nil, sc, true)
	return out, nodes, states, logp, ok
}
