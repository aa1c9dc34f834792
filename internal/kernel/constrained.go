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
//   - BuildCheckpointBoundedCtx runs the forward Viterbi DP over cells
//     (node x, state q, matched-prefix count z) restricted to runs whose
//     output so far is an exact prefix of an alignment string. Each
//     per-position layer of active cells — scores plus backpointers into
//     the previous layer — is retained, so the checkpoint is the whole
//     constrained frontier history, sparse, in activation order. Each
//     layer additionally carries a z-bucket index (a counting sort of its
//     cells by matched-prefix count), so a resume jumps straight to the
//     cells at its constraint boundary instead of scanning the layer.
//
//   - NewLazyCheckpoint returns the same checkpoint as a thin handle with
//     the DP deferred: nothing is relaxed until a resume first reads a
//     layer, at which point the full DP is materialized once (measured on
//     the ranked drains, Lawler children arrive at ascending prefix
//     depths spanning the whole alignment, so partial z-capped builds
//     were always rebuilt — the win of laziness is the checkpoints that
//     are never touched at all: parents whose children never reach the
//     queue front, and the last emitted answer of every drain).
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
//     its final past-zone frontier for the append-extendable ranked path
//     and, given a traced capture over a shorter prefix, continuing it
//     over only the appended positions.
//
//   - ConstrainedViterbi is a one-shot build-then-resume.
//
// Determinism: ties are broken by first activation (relax keeps the
// incumbent on equal scores), past-zone advancement precedes crossing
// injection at each position, and a cell with z > |prefix| never feeds a
// cell with z ≤ |prefix|, so resolving a constraint against a checkpoint
// aligned to any extension of its prefix yields bit-identical results to
// resolving it against a checkpoint aligned to the prefix itself. That
// invariant is what lets the parallel enumerator share an LRU of
// checkpoints and still emit the exact sequence of the sequential one.
// A lazy handle materializes the same DP the eager build would have, so
// deferral is unobservable apart from when the work happens.
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
// Gating by potential = -Inf is even simpler: the backward recurrence
// makes the -Inf set closed under successors, so gated cells only ever
// relax gated cells and removing them is unobservable.

// ckLayer is one position's frontier snapshot: the active cells in
// activation order, their best log scores, and for each the index of its
// predecessor in the previous layer (-1 at position 0). zidx holds the
// layer-local cell indices counting-sorted into z buckets — the sort is
// stable, so each bucket preserves activation order — with bucket z
// spanning zidx[zoff[z]:zoff[z+1]]. The slices are views into the
// checkpoint's shared slab (see ckSlab); off, n, and zo locate the layer
// inside the slab while it is still being appended to, before seal
// materializes the views.
type ckLayer struct {
	cells []int32
	score []float64
	prev  []int32
	zidx  []int32
	zoff  []int32
	maxZ  int32
	off   int32
	n     int32
	zo    int32
}

// bucket returns the layer-local indices of cells with matched-prefix
// count z, in activation order.
func (l *ckLayer) bucket(z int) []int32 {
	if l.n == 0 || z < 0 || int32(z) > l.maxZ {
		return nil
	}
	return l.zidx[l.zoff[z]:l.zoff[z+1]]
}

// window returns the layer-local indices of cells with z in [lo, hi].
// The single-bucket case is a direct slice; spanning windows are merged
// into buf and sorted, because candidate recording order must match the
// exhaustive layer scan (ascending activation index) for the resume's
// tie-breaking contract.
func (l *ckLayer) window(lo, hi int, buf *[]int32) []int32 {
	if l.n == 0 {
		return nil
	}
	if lo < 0 {
		lo = 0
	}
	if m := int(l.maxZ); hi > m {
		hi = m
	}
	if lo > hi {
		return nil
	}
	if lo == hi {
		return l.zidx[l.zoff[lo]:l.zoff[lo+1]]
	}
	span := l.zidx[l.zoff[lo]:l.zoff[hi+1]]
	*buf = append((*buf)[:0], span...)
	slices.Sort(*buf)
	return *buf
}

// ckSlab is the recyclable backing storage of one checkpoint view: every
// layer's cells/score/prev/zidx concatenated into flat arrays (plus the
// z-bucket offset segments and the layers header slice itself). Building
// into a slab instead of fresh slices per layer is what makes checkpoints
// recyclable — a ConstrainScratch keeps a freelist of slabs (see
// Recycle), which on sweep workloads (one checkpoint ring per window,
// thousands of windows) removes the dominant allocation source of the
// build path.
type ckSlab struct {
	cells  []int32
	score  []float64
	prev   []int32
	zidx   []int32
	zoff   []int32
	layers []ckLayer
}

// growI32 extends s by n elements, reusing capacity when present.
func growI32(s []int32, n int) []int32 {
	if need := len(s) + n; cap(s) >= need {
		return s[:need]
	}
	return append(s, make([]int32, n)...)
}

// growF64 extends s by n elements, reusing capacity when present.
func growF64(s []float64, n int) []float64 {
	if need := len(s) + n; cap(s) >= need {
		return s[:need]
	}
	return append(s, make([]float64, n)...)
}

// snapshot appends the frontier's active cells (in activation order) to
// the slab, counting-sorts them into z buckets, records the layer's
// location and maxZ, and resets the frontier for the next position. The
// layer's slice views stay nil until seal: appends may still relocate
// the slab arrays. zcur is the counting-sort cursor scratch; zbuf holds
// the per-cell z values so the modulo is computed once per cell.
func (s *ckSlab) snapshot(layer *ckLayer, f *frontier, prevBuf []int32, zdim int, zcur, zbuf *[]int32) {
	off := len(s.cells)
	n := len(f.list)
	s.cells = growI32(s.cells, n)
	s.score = growF64(s.score, n)
	s.prev = growI32(s.prev, n)
	s.zidx = growI32(s.zidx, n)
	cells := s.cells[off:]
	score := s.score[off:]
	prev := s.prev[off:]
	if cap(*zbuf) < n {
		*zbuf = make([]int32, n)
	}
	zs := (*zbuf)[:n]
	var maxZ int32
	zd := int32(zdim)
	for j, cell := range f.list {
		cells[j] = cell
		score[j] = f.val[cell]
		prev[j] = prevBuf[cell]
		z := cell % zd
		zs[j] = z
		if z > maxZ {
			maxZ = z
		}
	}

	zo := len(s.zoff)
	zlen := int(maxZ) + 2
	if need := zo + zlen; cap(s.zoff) >= need {
		s.zoff = s.zoff[:need]
		clear(s.zoff[zo:])
	} else {
		s.zoff = append(s.zoff, make([]int32, zlen)...)
	}
	zoff := s.zoff[zo:]
	for _, z := range zs {
		zoff[z+1]++
	}
	for z := 0; z < zlen-1; z++ {
		zoff[z+1] += zoff[z]
	}
	if cap(*zcur) < zlen-1 {
		*zcur = make([]int32, zlen-1)
	}
	cur := (*zcur)[:zlen-1]
	copy(cur, zoff[:zlen-1])
	zidx := s.zidx[off:]
	for j, z := range zs {
		zidx[cur[z]] = int32(j)
		cur[z]++
	}

	layer.off, layer.n, layer.maxZ, layer.zo = int32(off), int32(n), maxZ, int32(zo)
	f.reset()
}

// seal materializes every layer's slice views into the (now final) slab
// arrays. Layers past an early build break have off = n = 0 and get
// empty views.
func (s *ckSlab) seal(layers []ckLayer) {
	for i := range layers {
		l := &layers[i]
		end := l.off + l.n
		l.cells = s.cells[l.off:end:end]
		l.score = s.score[l.off:end:end]
		l.prev = s.prev[l.off:end:end]
		l.zidx = s.zidx[l.off:end:end]
		if l.n > 0 {
			ze := l.zo + l.maxZ + 2
			l.zoff = s.zoff[l.zo:ze:ze]
		} else {
			l.zoff = nil
		}
	}
}

// ckView is the materialized DP of a checkpoint: every position's
// retained frontier layer plus the slab backing them. A view is
// immutable once published; a resume captures it once for its whole
// call, so its traceback indices stay consistent.
type ckView struct {
	layers []ckLayer
	slab   ckSlab
}

// Checkpoint is the retained exact-prefix DP of BuildCheckpointBoundedCtx,
// or a lazy handle to it (NewLazyCheckpoint). Safe for concurrent use by
// any number of resumes: eager checkpoints are immutable after
// construction, and lazy handles single-flight their deferred
// materialization.
type Checkpoint struct {
	// Align is the alignment string the DP was restricted to.
	Align  []automata.Symbol
	states int // |Q| of the tables it was built against
	n      int // sequence length it was built against
	zdim   int // len(Align)+1, the stride of the z coordinate

	// view is the materialized DP; nil for a lazy handle no resume has
	// touched yet. Eager checkpoints store it at construction; lazy
	// handles publish it exactly once, on first touch.
	view atomic.Pointer[ckView]

	// Deferred-build state (NewLazyCheckpoint): the inputs of the DP,
	// with mu single-flighting the materialization. nil/unset on eager
	// checkpoints.
	mu sync.Mutex
	nt *NFATables
	v  *SeqView
	b  *Bounds

	// base links an extended checkpoint (NewExtendedLazyCheckpoint) to
	// the checkpoint over the shorter sequence it continues: the first
	// base.n layers of this DP are exactly base's layers, so
	// materialization copies instead of relaxing them. gated records
	// whether the build drops potential -Inf cells; a gated layer set is
	// incomplete forward state once the sequence grows (a cell dead at
	// length n can regain accepting completions at n+Δ), so only ungated
	// checkpoints are extendable.
	base  *Checkpoint
	gated bool

	// donor optionally links a lazy checkpoint to an already-cached
	// checkpoint whose alignment is a strict prefix of Align
	// (NewLazyCheckpointFrom). Materialization then copies the donor's
	// zone columns — the exact-prefix DP over a shared alignment prefix
	// is identical cell for cell — and relaxes only the appended zone
	// columns, instead of re-running the full DP. Cleared once the view
	// is published so the donor can be evicted independently.
	donor *Checkpoint

	// matLayers counts DP layers actually relaxed: the build work done,
	// against n per full eager build (0 for an untouched lazy handle).
	matLayers atomic.Uint64
}

// Layers returns the number of retained positions (the sequence length).
func (ck *Checkpoint) Layers() int { return ck.n }

// Cells returns the total number of currently materialized DP cells, a
// memory diagnostic for the checkpoint LRU. Zero for an untouched lazy
// handle.
func (ck *Checkpoint) Cells() int {
	vw := ck.view.Load()
	if vw == nil {
		return 0
	}
	total := 0
	for i := range vw.layers {
		total += len(vw.layers[i].cells)
	}
	return total
}

// MaterializedLayers returns the number of DP layers this checkpoint has
// actually relaxed so far: n for a full build (eager, or lazy after its
// first touch; fewer if the exact-prefix language died early), 0 for an
// untouched lazy handle. The gap to Layers() is the prefix DP the lazy
// path skipped.
func (ck *Checkpoint) MaterializedLayers() int { return int(ck.matLayers.Load()) }

// NewLazyCheckpoint returns a checkpoint handle for align with the DP
// deferred: no layer is relaxed until a resume first reads one, at
// which point the full DP is materialized exactly as
// BuildCheckpointBoundedCtx would have built it. Resumes against a lazy
// handle are therefore bit-identical to resumes against the eager
// checkpoint. b may be nil, which disables gating of the deferred build.
func NewLazyCheckpoint(nt *NFATables, v *SeqView, align []automata.Symbol, b *Bounds) *Checkpoint {
	if b != nil {
		b.lazyHandles.Add(1)
	}
	return &Checkpoint{
		Align:  automata.CloneString(align),
		states: nt.States,
		n:      v.N,
		zdim:   len(align) + 1,
		nt:     nt,
		v:      v,
		b:      b,
		gated:  b != nil,
	}
}

// NewLazyCheckpointFrom is NewLazyCheckpoint with a derivation donor: a
// checkpoint whose alignment is a strict prefix of align. The deferred
// build then starts from the donor's materialized columns (every zone
// column z ≤ |donor.Align| of the two DPs is identical, because the
// exact-prefix dynamics up to a shared alignment prefix cannot depend
// on the symbols past it) and relaxes only the new columns — O(zone
// boundary band) per position instead of O(all columns). The donor must
// be ungated (complete layers) and b must be nil; otherwise, or when
// the donor cannot serve at build time, the build falls back to the
// full DP and the result is identical either way up to tie order: cell
// scores, buckets and traceback validity all match a from-scratch
// build, while the within-layer activation order of donor columns is
// the donor's own. The ranked evaluator uses this for the checkpoint of
// a freshly emitted answer, whose alignment extends an already-cached
// one by a symbol or two.
func NewLazyCheckpointFrom(nt *NFATables, v *SeqView, align []automata.Symbol, donor *Checkpoint) *Checkpoint {
	ck := NewLazyCheckpoint(nt, v, align, nil)
	if donor != nil && !donor.gated && donor.states == nt.States &&
		donor.n >= 1 && donor.n <= v.N && len(donor.Align) < len(align) &&
		automata.HasPrefix(align, donor.Align) {
		ck.donor = donor
	}
	return ck
}

// Extendable reports whether ck can serve as the base of an extended
// checkpoint over nt and a view at least as long as the one ck was built
// against. Gated checkpoints are excluded: gating drops cells whose
// completion potential is -Inf over the *current* length, and those
// cells can become live again when the sequence grows, so a gated layer
// set is not valid forward state for a longer view.
func (ck *Checkpoint) Extendable(nt *NFATables, v *SeqView) bool {
	return ck != nil && !ck.gated && ck.states == nt.States && v.N >= ck.n
}

// NewExtendedLazyCheckpoint returns a lazy checkpoint over the grown
// view v that continues base's exact-prefix DP instead of re-running it.
// The exact-prefix DP is position-local, so base's retained layers are
// bit-identical to the first base.n layers of a from-scratch build over
// v; materialization copies them (from the deepest already-materialized
// view in base's chain) and relaxes only the appended positions. base
// must satisfy Extendable(nt, v) and v must extend the view base was
// built against (SeqView.Extend / markov.Sequence.Extended); base is
// never mutated, so an evaluator over the old snapshot can keep serving
// from it concurrently. When v has base's own length, base itself is
// returned. The handle is always ungated, hence extendable in turn:
// extension chains across any number of appends.
func NewExtendedLazyCheckpoint(nt *NFATables, v *SeqView, base *Checkpoint) *Checkpoint {
	if !base.Extendable(nt, v) {
		panic("kernel: NewExtendedLazyCheckpoint base is not extendable to the given view")
	}
	// Skip unmaterialized extension links: they carry no DP (both
	// materialization and FrontierAt would walk past them anyway), and
	// dropping them keeps chains short across many appends — a handle
	// that never materializes would otherwise add one dead link per
	// append and make every chain walk linear in the append count. A
	// plain lazy handle (base.base == nil) is kept: it owns the
	// from-scratch build inputs.
	for base.base != nil && base.view.Load() == nil {
		base = base.base
	}
	if v.N == base.n {
		return base
	}
	return &Checkpoint{
		Align:  base.Align,
		states: nt.States,
		n:      v.N,
		zdim:   base.zdim,
		nt:     nt,
		v:      v,
		base:   base,
	}
}

// FrontierAt returns the final retained layer of the deepest
// materialized view in ck's extension chain covering at most maxN
// positions: the active cells (in (x·|Q|+z-dim) checkpoint encoding,
// stride zdim) with their forward scores, and the length n of the view
// they came from. ok is false when no view in the chain up to maxN has
// materialized. The returned slices alias an immutable published view
// and must be treated as read-only.
//
// The incremental ranked reseed uses this as an admissible anchor for
// runs still inside a subproblem's matched zone: every exact-prefix
// partial run alive at position n-1 appears in that layer, forward
// scores only decrease along a run (each step weight is a log
// probability ≤ 0), and the layer is complete because the build is
// ungated (Extendable guarantees the chain root is too) — so
// max over the layer of score + potential-at-(n-1) bounds the best
// completion of every such run even when the layer is several appends
// stale.
func (ck *Checkpoint) FrontierAt(maxN int) (cells []int32, scores []float64, zdim, n int, ok bool) {
	if maxN < 1 {
		return nil, nil, 0, 0, false
	}
	for c := ck; c != nil; c = c.base {
		vw := c.view.Load()
		if vw == nil {
			continue
		}
		if c.n <= maxN {
			last := &vw.layers[len(vw.layers)-1]
			return last.cells, last.score, c.zdim, c.n, true
		}
		// This view covers more positions than asked for; its interior
		// layer at maxN-1 is exactly the zone frontier at that position —
		// a tighter anchor than any older view's final layer, and found
		// without walking the chain further. The exact-prefix DP is
		// position-local, so the layer is identical to the final layer of
		// a build stopped at maxN.
		l := &vw.layers[maxN-1]
		return l.cells, l.score, c.zdim, maxN, true
	}
	return nil, nil, 0, 0, false
}

// ensureView returns the checkpoint's view, materializing the deferred
// DP on the first touch of a lazy handle. Concurrent first touches
// serialize on ck.mu (single-flight); every later caller takes the
// lock-free fast path. A cancelled materialization publishes nothing, so
// the next caller retries cleanly.
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
		// An eager checkpoint always has a view; reaching here means the
		// checkpoint was recycled while still referenced.
		panic("kernel: resume against a recycled checkpoint")
	}
	var (
		vw    *ckView
		built int
		err   error
	)
	if ck.base != nil {
		vw, built, err = materializeExtendedView(p, ck, sc)
	} else if ck.donor != nil && ck.b == nil {
		vw, built, err = materializeDerivedView(p, ck.nt, ck.v, ck.Align, ck.donor, sc)
	} else {
		vw, built, err = materializeView(p, ck.nt, ck.v, ck.Align, ck.b, sc)
	}
	if err != nil {
		return nil, err
	}
	ck.donor = nil // release for independent eviction; the DP is ours now
	ck.matLayers.Store(uint64(built))
	if ck.b != nil {
		ck.b.lazyLayers.Add(uint64(built))
	}
	ck.view.Store(vw)
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

// ConstrainScratch holds the reusable buffers of checkpoint builds and
// resumes. The two use disjoint fields, so one scratch serves a
// build-then-resume sequence — including a lazy materialization
// triggered inside a resume, which runs before the resume touches its
// own fields. Not safe for concurrent use; pass nil
// to draw from an internal pool.
type ConstrainScratch struct {
	f         frontier // build: (x·|Q|+q)·Z+z cell space
	prevBuf   []int32  // build: predecessor index per cell, rebuilt per layer
	zcur      []int32  // build: counting-sort cursor for the z-bucket index
	zbuf      []int32  // build: per-cell z values of the layer being snapshotted
	zstep     []int32  // build: alignStep memo, [edge·zdim+z] → z2 or -1
	xof, qof  []int32  // build: xq → (x, q) decode tables for the current (K, |Q|)
	xqK, xqS  int      // build: the (K, |Q|) the decode tables were sized for
	cur, next frontier // resume: past-zone (x·|Q|+q) cell space
	back      []int32  // resume: per-position past-zone backpointers
	cross     []crossRec
	cands     []crossCand // resume: selected crossing candidates, recycled across resolves
	win       []int32     // resume: multi-bucket boundary-window merge buffer
	freeSlabs []ckSlab    // recycled checkpoint storage, popped by builds
	// slabHint/zoffHint are the final slab sizes of the last build through
	// this scratch: successive builds in one drain are about the same
	// size, so pre-sizing to the previous high-water mark replaces the
	// append-doubling regrowth (and its copies) with one allocation.
	slabHint, zoffHint int
}

// Recycle returns ck's materialized layer storage to the scratch
// freelist, where the next checkpoint build through the same scratch
// reuses it. Recycling ends the view's immutability: the caller must
// have dropped every reference to ck and to data obtained from it, and
// must never recycle a checkpoint other goroutines can still see (in
// particular, checkpoints published to the ranked evaluator's shared LRU
// are not recyclable). Recycling into the internal pool is not possible
// — Recycle is only useful with an explicitly owned scratch, such as the
// sliding-window sweeper's, whose per-window checkpoint rings are
// private by construction.
func (sc *ConstrainScratch) Recycle(ck *Checkpoint) {
	if ck == nil {
		return
	}
	vw := ck.view.Swap(nil)
	if vw == nil || vw.layers == nil {
		return
	}
	slab := vw.slab
	slab.layers = vw.layers
	sc.freeSlabs = append(sc.freeSlabs, slab)
}

var constrainScratchPool = sync.Pool{New: func() any { return new(ConstrainScratch) }}

// alignStep advances the matched-prefix count z by emission w, reporting
// false when the output stops being an exact prefix of align.
func alignStep(align []automata.Symbol, z int, w []automata.Symbol) (int, bool) {
	if z+len(w) > len(align) {
		return 0, false
	}
	for i, s := range w {
		if align[z+i] != s {
			return 0, false
		}
	}
	return z + len(w), true
}

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

// BuildCheckpointBoundedCtx runs the forward Viterbi DP restricted to
// runs whose output is an exact prefix of align, retaining every
// position's sparse frontier. One checkpoint aligned to a printed answer
// o serves every Lawler child of o (their prefixes are all prefixes of
// o). For drains that may never resolve those children,
// NewLazyCheckpoint defers this work until a resume needs it.
//
// With b non-nil the build is gated by the potentials: cells with no
// accepting completion (potential -Inf) are dropped from every retained
// layer. Gated checkpoints resume to bit-identical results (the -Inf set
// is closed under successors) while carrying fewer cells; nil disables
// gating. The context is polled every DefaultPollInterval positions; on
// cancellation the partial checkpoint is discarded and ctx.Err()
// returned.
func BuildCheckpointBoundedCtx(ctx context.Context, nt *NFATables, v *SeqView, align []automata.Symbol, b *Bounds, sc *ConstrainScratch) (*Checkpoint, error) {
	return buildCheckpoint(NewPoll(ctx), nt, v, align, b, sc)
}

func buildCheckpoint(p *Poll, nt *NFATables, v *SeqView, align []automata.Symbol, b *Bounds, sc *ConstrainScratch) (*Checkpoint, error) {
	if sc == nil {
		sc = constrainScratchPool.Get().(*ConstrainScratch)
		defer constrainScratchPool.Put(sc)
	}
	ck := &Checkpoint{
		Align:  automata.CloneString(align),
		states: nt.States,
		n:      v.N,
		zdim:   len(align) + 1,
		gated:  b != nil,
	}
	vw, built, err := materializeView(p, nt, v, ck.Align, b, sc)
	if err != nil {
		return nil, err
	}
	ck.matLayers.Store(uint64(built))
	if b != nil {
		b.eagerLayers.Add(uint64(built))
	}
	ck.view.Store(vw)
	return ck, nil
}

// alignMemo fills sc.zstep with the alignStep results of every
// transition-table edge at every matched-prefix count: zstep[z·|δ|+t] is
// the z' that edge t's emission advances z to, or -1 when the output
// stops being an exact prefix of align. One O(|δ|·|align|) pass replaces
// the per-relaxation emission compare in the build's inner loop — the
// memo is shared by all N layers, so it pays for itself many times over.
// The layout is z-major because the build fixes z per cell and scans the
// (q, y) edge range in the inner loop: consecutive t probes then walk
// one cache line instead of striding by zdim.
func alignMemo(sc *ConstrainScratch, nt *NFATables, align []automata.Symbol, zdim int) []int32 {
	nT := len(nt.Succ)
	need := nT * zdim
	if cap(sc.zstep) < need {
		sc.zstep = make([]int32, need)
	}
	zstep := sc.zstep[:need]
	for i := range zstep {
		zstep[i] = -1
	}
	for t := 0; t < nT; t++ {
		w := nt.Emit[nt.EmitPtr[t]:nt.EmitPtr[t+1]]
		if len(w) == 1 {
			s := w[0]
			for z := 0; z < len(align); z++ {
				if align[z] == s {
					zstep[z*nT+t] = int32(z + 1)
				}
			}
			continue
		}
		for z := 0; z+len(w) <= len(align); z++ {
			if z2, ok := alignStep(align, z, w); ok {
				zstep[z*nT+t] = int32(z2)
			}
		}
	}
	return zstep
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

// materializeView runs the exact-prefix Viterbi DP and returns the
// sealed view plus the number of layers relaxed (fewer than v.N only
// when the exact-prefix language dies early).
func materializeView(p *Poll, nt *NFATables, v *SeqView, align []automata.Symbol, b *Bounds, sc *ConstrainScratch) (*ckView, int, error) {
	zdim := len(align) + 1
	size := v.K * nt.States * zdim
	sc.f.ensure(size)
	sc.f.reset()
	if cap(sc.prevBuf) < size {
		sc.prevBuf = make([]int32, size)
	}
	prevBuf := sc.prevBuf[:size]
	zstep := alignMemo(sc, nt, align, zdim)
	xof, qof := decodeTables(sc, v.K, nt.States)
	states := nt.States
	kq := v.K * states

	var slab ckSlab
	if n := len(sc.freeSlabs); n > 0 {
		slab = sc.freeSlabs[n-1]
		sc.freeSlabs[n-1] = ckSlab{}
		sc.freeSlabs = sc.freeSlabs[:n-1]
		slab.cells, slab.score, slab.prev = slab.cells[:0], slab.score[:0], slab.prev[:0]
		slab.zidx, slab.zoff = slab.zidx[:0], slab.zoff[:0]
	} else if sc.slabHint > 0 {
		slab.cells = make([]int32, 0, sc.slabHint)
		slab.score = make([]float64, 0, sc.slabHint)
		slab.prev = make([]int32, 0, sc.slabHint)
		slab.zidx = make([]int32, 0, sc.slabHint)
		slab.zoff = make([]int32, 0, sc.zoffHint)
	}
	var layers []ckLayer
	if cap(slab.layers) >= v.N {
		layers = slab.layers[:v.N]
		for i := range layers {
			layers[i] = ckLayer{}
		}
	} else {
		layers = make([]ckLayer, v.N)
	}
	slab.layers = nil
	neg := math.Inf(-1)
	var prow []float64
	if b != nil {
		prow = b.pot[:kq]
	}
	for ii, x := range v.InitIdx {
		lp := math.Log(v.InitVal[ii])
		elo, ehi := nt.Edges(int(nt.Start), int(x))
		for e := elo; e < ehi; e++ {
			z2 := zstep[e]
			if z2 < 0 {
				continue
			}
			q2 := int(nt.Succ[e])
			if prow != nil && prow[int(x)*states+q2] == neg {
				continue
			}
			cell := int32(int(x)*states+q2)*int32(zdim) + z2
			if sc.f.relax(cell, lp) {
				prevBuf[cell] = -1
			}
		}
	}
	slab.snapshot(&layers[0], &sc.f, prevBuf, zdim, &sc.zcur, &sc.zbuf)
	nb, err := relaxLayers(p, nt, v, b, sc, &slab, layers, 1, zdim, zstep, xof, qof, prevBuf)
	if err != nil {
		return nil, 0, err
	}
	built := 1 + nb
	if n := len(slab.cells); n > sc.slabHint {
		sc.slabHint = n
	}
	if n := len(slab.zoff); n > sc.zoffHint {
		sc.zoffHint = n
	}
	slab.seal(layers)
	return &ckView{layers: layers, slab: slab}, built, nil
}

// relaxLayers runs the exact-prefix DP from layer `from` (whose
// predecessor layer from-1 must already be in the slab) through the last
// position, snapshotting each layer and stopping early when the
// exact-prefix language dies. It returns the number of layers relaxed.
// On cancellation the slab goes back to the scratch freelist and the
// error is returned; sc.f is empty at every poll point (snapshot resets
// it), so no other cleanup is needed.
func relaxLayers(p *Poll, nt *NFATables, v *SeqView, b *Bounds, sc *ConstrainScratch, slab *ckSlab, layers []ckLayer, from, zdim int, zstep, xof, qof, prevBuf []int32) (int, error) {
	off := nt.Off
	syms := nt.Syms
	states := nt.States
	kq := v.K * states
	neg := math.Inf(-1)
	nT := len(nt.Succ)
	var prow []float64
	built := 0
	for i := from; i < v.N; i++ {
		if err := p.Step(); err != nil {
			slab.layers = layers
			sc.freeSlabs = append(sc.freeSlabs, *slab)
			return 0, err
		}
		prevLayer := &layers[i-1]
		if prevLayer.n == 0 {
			break // the exact-prefix language died; later layers stay empty
		}
		// The layer views are not sealed yet; read the previous layer
		// through the slab. Safe: the slab only grows at the snapshot
		// below, after this iteration is done with these views.
		pcells := slab.cells[prevLayer.off : prevLayer.off+prevLayer.n]
		pscore := slab.score[prevLayer.off : prevLayer.off+prevLayer.n]
		st := &v.Steps[i-1]
		if b != nil {
			prow = b.pot[i*kq : (i+1)*kq]
		}
		for pi, pcell := range pcells {
			base := pscore[pi]
			xq := int(pcell) / zdim
			z := int(pcell) - xq*zdim
			x := int(xof[xq])
			q := int(qof[xq])
			zrow := zstep[z*nT : (z+1)*nT]
			for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
				y := int(st.Col[e])
				lp := base + st.LogVal[e]
				ti := q*syms + y
				tlo, thi := off[ti], off[ti+1]
				yBase := y * states
				for t := tlo; t < thi; t++ {
					z2 := zrow[t]
					if z2 < 0 {
						continue
					}
					q2 := int(nt.Succ[t])
					if prow != nil && prow[yBase+q2] == neg {
						continue
					}
					cell := int32(yBase+q2)*int32(zdim) + z2
					if sc.f.relax(cell, lp) {
						prevBuf[cell] = int32(pi)
					}
				}
			}
		}
		slab.snapshot(&layers[i], &sc.f, prevBuf, zdim, &sc.zcur, &sc.zbuf)
		built++
	}
	return built, nil
}

// materializeExtendedView materializes an extended checkpoint
// (NewExtendedLazyCheckpoint) without copying the base DP: the prefix
// layer headers alias the deepest already-materialized view in the base
// chain — published views are immutable and sealed headers carry their
// own slices, so aliasing races with nothing — and only the appended
// positions relax, into a fresh slab seeded with the base's final
// layer (relaxLayers reads its predecessor through the slab, so the
// seed gives position baseN a slab-local predecessor; the header is
// re-pointed at the base afterwards). The per-append materialization
// cost is therefore O(final frontier + Δ relaxed layers), not O(n):
// copying the whole slab per extension made a long append chain
// quadratic in the stream and was the dominant cost of incremental
// ranked serving. Intermediate unmaterialized links in the chain are
// skipped, not built: the whole gap from the anchor view to ck's length
// relaxes in one pass. When nothing in the chain has materialized, the
// full DP runs from position 0 — extension never forces prefix work
// that a from-scratch lazy handle would have deferred. Either way the
// result is bit-identical to a from-scratch build over ck.v (the DP is
// position-local and relax keeps the incumbent on equal scores, so the
// aliased prefix is exactly what a fresh build would recompute).
func materializeExtendedView(p *Poll, ck *Checkpoint, sc *ConstrainScratch) (*ckView, int, error) {
	var baseVw *ckView
	var baseCk *Checkpoint
	for c := ck.base; c != nil; c = c.base {
		if vw := c.view.Load(); vw != nil {
			baseVw, baseCk = vw, c
			break
		}
	}
	nt, v := ck.nt, ck.v
	if baseVw == nil {
		return materializeView(p, nt, v, ck.Align, nil, sc)
	}
	zdim := ck.zdim
	size := v.K * nt.States * zdim
	sc.f.ensure(size)
	sc.f.reset()
	if cap(sc.prevBuf) < size {
		sc.prevBuf = make([]int32, size)
	}
	prevBuf := sc.prevBuf[:size]
	zstep := alignMemo(sc, nt, ck.Align, zdim)
	xof, qof := decodeTables(sc, v.K, nt.States)

	baseN := baseCk.n
	layers := make([]ckLayer, v.N)
	copy(layers, baseVw.layers[:baseN])

	// Seed the fresh slab with the base's final layer so relaxLayers'
	// slab-relative read of layer baseN-1 resolves locally. prev indices
	// are layer-local (an index into the previous layer's cell list), so
	// the verbatim copy keeps tracebacks consistent across slabs.
	lastB := &baseVw.layers[baseN-1]
	var slab ckSlab
	slab.cells = append(make([]int32, 0, len(lastB.cells)*(2+v.N-baseN)+16), lastB.cells...)
	slab.score = append(make([]float64, 0, cap(slab.cells)), lastB.score...)
	slab.prev = append(make([]int32, 0, cap(slab.cells)), lastB.prev...)
	slab.zidx = append(make([]int32, 0, cap(slab.cells)), lastB.zidx...)
	slab.zoff = append(make([]int32, 0, len(lastB.zoff)+zdim*(v.N-baseN)), lastB.zoff...)
	layers[baseN-1] = ckLayer{off: 0, n: lastB.n, maxZ: lastB.maxZ, zo: 0}

	built := 0
	if lastB.n > 0 {
		nb, err := relaxLayers(p, nt, v, nil, sc, &slab, layers, baseN, zdim, zstep, xof, qof, prevBuf)
		if err != nil {
			return nil, 0, err
		}
		built = nb
	}
	// Seal only the appended layers against the new slab, then restore
	// the seed header to its sealed alias into the base view.
	slab.seal(layers[baseN:])
	layers[baseN-1] = *lastB
	return &ckView{layers: layers, slab: slab}, built, nil
}

// materializeDerivedView builds the exact-prefix DP for align by
// copying the donor checkpoint's columns and relaxing only the new
// ones. donor.Align is a strict prefix of align, so for every position
// the donor's cells ARE the derived layer's cells with z ≤ |donor.Align|
// (same scores, same traceback indices — the exact-prefix dynamics over
// a shared alignment prefix cannot see the symbols past it); the layer
// is assembled donor block first, new block after, which keeps the
// donor's layer-local prev indices valid verbatim. Only predecessors in
// the boundary band z ≥ |donor.Align|+1-MaxEmit can reach a new column
// (an edge advances z by at most MaxEmit), so the per-position relax
// cost is the band, not the zone. Cell scores, z-buckets and prev-chain
// validity are identical to a from-scratch build; the within-layer
// activation order of the donor block is the donor's own, which is a
// payload-order difference a tied emission may observe — callers under
// the ranked tie-class contract (set-identity within exactly tied
// scores) are unaffected. When the donor covers fewer positions than v
// (a handle carried from before an append), the remaining positions
// relax in full like any extension tail.
func materializeDerivedView(p *Poll, nt *NFATables, v *SeqView, align []automata.Symbol, donor *Checkpoint, sc *ConstrainScratch) (*ckView, int, error) {
	dvw, err := donor.ensureView(p, sc)
	if err != nil {
		return nil, 0, err
	}
	dlen := len(donor.Align)
	dzdim := donor.zdim
	zdim := len(align) + 1
	states := nt.States
	size := v.K * states * zdim
	sc.f.ensure(size)
	sc.f.reset()
	if cap(sc.prevBuf) < size {
		sc.prevBuf = make([]int32, size)
	}
	prevBuf := sc.prevBuf[:size]
	zstep := alignMemo(sc, nt, align, zdim)
	xof, qof := decodeTables(sc, v.K, states)
	nT := len(nt.Succ)
	offT := nt.Off
	syms := nt.Syms
	band := dlen + 1 - nt.MaxEmit
	if band < 0 {
		band = 0
	}

	var slab ckSlab
	if n := len(sc.freeSlabs); n > 0 {
		slab = sc.freeSlabs[n-1]
		sc.freeSlabs[n-1] = ckSlab{}
		sc.freeSlabs = sc.freeSlabs[:n-1]
		slab.cells, slab.score, slab.prev = slab.cells[:0], slab.score[:0], slab.prev[:0]
		slab.zidx, slab.zoff = slab.zidx[:0], slab.zoff[:0]
	} else if sc.slabHint > 0 {
		slab.cells = make([]int32, 0, sc.slabHint)
		slab.score = make([]float64, 0, sc.slabHint)
		slab.prev = make([]int32, 0, sc.slabHint)
		slab.zidx = make([]int32, 0, sc.slabHint)
		slab.zoff = make([]int32, 0, sc.zoffHint)
	}
	var layers []ckLayer
	if cap(slab.layers) >= v.N {
		layers = slab.layers[:v.N]
		for i := range layers {
			layers[i] = ckLayer{}
		}
	} else {
		layers = make([]ckLayer, v.N)
	}
	slab.layers = nil

	donorN := donor.n
	if donorN > v.N {
		donorN = v.N
	}
	built := 0
	dead := false
	for i := 0; i < donorN; i++ {
		if err := p.Step(); err != nil {
			slab.layers = layers
			sc.freeSlabs = append(sc.freeSlabs, slab)
			return nil, 0, err
		}
		if i == 0 {
			// New-column seeds off the initial distribution; donor columns
			// are complete in the donor's layer 0.
			for ii, x := range v.InitIdx {
				lp := math.Log(v.InitVal[ii])
				elo, ehi := nt.Edges(int(nt.Start), int(x))
				for e := elo; e < ehi; e++ {
					z2 := zstep[e]
					if int(z2) <= dlen {
						continue
					}
					q2 := int(nt.Succ[e])
					cell := int32(int(x)*states+q2)*int32(zdim) + z2
					if sc.f.relax(cell, lp) {
						prevBuf[cell] = -1
					}
				}
			}
		} else {
			pl := &layers[i-1]
			if pl.n == 0 {
				dead = true
				break
			}
			pcells := slab.cells[pl.off : pl.off+pl.n]
			pscore := slab.score[pl.off : pl.off+pl.n]
			pzidx := slab.zidx[pl.off : pl.off+pl.n]
			pzoff := slab.zoff[pl.zo : pl.zo+pl.maxZ+2]
			st := &v.Steps[i-1]
			hi := int(pl.maxZ)
			for z := band; z <= hi; z++ {
				zrow := zstep[z*nT : (z+1)*nT]
				for _, pj := range pzidx[pzoff[z]:pzoff[z+1]] {
					base := pscore[pj]
					xq := int(pcells[pj]) / zdim
					x := int(xof[xq])
					q := int(qof[xq])
					for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
						y := int(st.Col[e])
						lp := base + st.LogVal[e]
						ti := q*syms + y
						tlo, thi := offT[ti], offT[ti+1]
						yBase := y * states
						for t := tlo; t < thi; t++ {
							z2 := zrow[t]
							if int(z2) <= dlen {
								continue
							}
							q2 := int(nt.Succ[t])
							cell := int32(yBase+q2)*int32(zdim) + z2
							if sc.f.relax(cell, lp) {
								prevBuf[cell] = pj
							}
						}
					}
				}
			}
		}

		// Assemble layer i: donor block verbatim (ids re-encoded to the
		// wider z stride), then the new cells in activation order.
		dl := &dvw.layers[i]
		dn := int(dl.n)
		nn := len(sc.f.list)
		n := dn + nn
		if n == 0 {
			dead = true
			break
		}
		off := len(slab.cells)
		slab.cells = growI32(slab.cells, n)
		slab.score = growF64(slab.score, n)
		slab.prev = growI32(slab.prev, n)
		slab.zidx = growI32(slab.zidx, n)
		cells := slab.cells[off:]
		score := slab.score[off:]
		prev := slab.prev[off:]
		zidx := slab.zidx[off:]
		dMaxZ := -1
		if dn > 0 {
			dMaxZ = int(dl.maxZ)
			stride := int32(zdim - dzdim)
			for j, c := range dl.cells {
				cells[j] = c + (c/int32(dzdim))*stride
			}
			copy(score[:dn], dl.score)
			copy(prev[:dn], dl.prev)
			copy(zidx[:dn], dl.zidx)
		}
		maxZ := dMaxZ
		if cap(sc.zbuf) < nn {
			sc.zbuf = make([]int32, nn)
		}
		zs := sc.zbuf[:nn]
		for t, cell := range sc.f.list {
			mi := dn + t
			cells[mi] = cell
			score[mi] = sc.f.val[cell]
			prev[mi] = prevBuf[cell]
			z := int(cell % int32(zdim))
			zs[t] = int32(z)
			if z > maxZ {
				maxZ = z
			}
		}
		zo := len(slab.zoff)
		zlen := maxZ + 2
		if need := zo + zlen; cap(slab.zoff) >= need {
			slab.zoff = slab.zoff[:need]
			clear(slab.zoff[zo:])
		} else {
			slab.zoff = append(slab.zoff, make([]int32, zlen)...)
		}
		zoff := slab.zoff[zo:]
		if dn > 0 {
			copy(zoff[:dMaxZ+2], dl.zoff)
		}
		// New cells occupy buckets strictly above the donor's: count them,
		// then chain the cumulative sums from the donor total onward.
		for _, z := range zs {
			zoff[z+1]++
		}
		for z := dMaxZ + 1; z <= maxZ; z++ {
			zoff[z+1] += zoff[z]
		}
		if nn > 0 {
			if cap(sc.zcur) < zlen-1 {
				sc.zcur = make([]int32, zlen-1)
			}
			cur := sc.zcur[:zlen-1]
			copy(cur, zoff[:zlen-1])
			for t, z := range zs {
				zidx[cur[z]] = int32(dn + t)
				cur[z]++
			}
		}
		layer := &layers[i]
		layer.off, layer.n, layer.maxZ, layer.zo = int32(off), int32(n), int32(maxZ), int32(zo)
		sc.f.reset()
		built++
	}
	// Positions past the donor's length (a handle carried from before an
	// append) relax in full, seeded by the last derived layer.
	if !dead && donorN < v.N && built == donorN {
		nb, err := relaxLayers(p, nt, v, nil, sc, &slab, layers, donorN, zdim, zstep, xof, qof, prevBuf)
		if err != nil {
			return nil, 0, err
		}
		built += nb
	}
	if n := len(slab.cells); n > sc.slabHint {
		sc.slabHint = n
	}
	if n := len(slab.zoff); n > sc.zoffHint {
		sc.zoffHint = n
	}
	slab.seal(layers)
	return &ckView{layers: layers, slab: slab}, built, nil
}

// walkPrefix reconstructs nodes/states for positions 0..li by following
// the view's prev chain from cell pj of layer li.
func (ck *Checkpoint) walkPrefix(layers []ckLayer, li, pj int, nodes []automata.Symbol, states []int) {
	for li >= 0 {
		layer := &layers[li]
		xq := int(layer.cells[pj]) / ck.zdim
		nodes[li] = automata.Symbol(xq / ck.states)
		states[li] = xq % ck.states
		pj = int(layer.prev[pj])
		li--
	}
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
type ResumeState struct {
	N      int
	Cells  []int32
	Scores []float64

	// Trace requests retention of the full past-zone traceback — the
	// per-position backpointer rows and crossing records — alongside the
	// frontier. A traced state is continuable: ResumeConstrainedIncCtx
	// re-runs only the appended positions of the sweep and tracebacks
	// through the retained rows, making a repeat resolve of the same
	// (constraint, alignment) pair O(Δ) in the appended suffix instead of
	// O(n). The ranked evaluator sets it on the second resolve of a
	// region — the per-append re-resolve set is small and stable, so only
	// that hot set pays the O(n·|cells|) retention.
	Trace bool

	// back[i] is the backpointer row of position i (pastSize wide):
	// ≥ 0 is the predecessor past-zone cell at i-1, negative encodes an
	// index into cross (-idx-2). Rows are immutable once captured — a
	// continuation shares the prefix rows and appends fresh ones — and a
	// nil row is unreachable by construction (an empty past-zone frontier
	// at capture time cuts every chain into the past, so the rows behind
	// it are dropped). cross is the crossing-record arena the negative
	// row entries index; prefix-sharing keeps old indices stable.
	back     [][]int32
	cross    []crossRec
	pastSize int
}

// ResumeConstrainedBoundedCtx solves the constrained top-answer problem
// — the maximum-probability accepting run whose output c admits —
// against a checkpoint whose alignment string extends c.Prefix. It
// returns the answer output, the evidence node string, the visited
// transducer states, and the log probability; ok is false when c admits
// no answer over a positive-probability world.
//
// With b non-nil the resume prunes by weight pushing: crossing
// candidates are selected against a running bound on the optimum and the
// past-zone sweep skips every cell that cannot reach it. Exact and
// bit-identical to the exhaustive resume (see the file comment); nil
// disables pruning. Cancellation is step-granular over the past-zone DP
// and any deferred checkpoint materialization (the ExactOnly fast path
// against an already materialized view only reads the final retained
// layer and completes regardless).
func ResumeConstrainedBoundedCtx(ctx context.Context, nt *NFATables, v *SeqView, ck *Checkpoint, c transducer.Constraint, b *Bounds, sc *ConstrainScratch) (out, nodes []automata.Symbol, states []int, logp float64, ok bool, err error) {
	return resumeConstrained(NewPoll(ctx), nt, v, ck, c, b, nil, sc)
}

func resumeConstrained(p *Poll, nt *NFATables, v *SeqView, ck *Checkpoint, c transducer.Constraint, b *Bounds, rs *ResumeState, sc *ConstrainScratch) (out, nodes []automata.Symbol, states []int, logp float64, ok bool, err error) {
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
	}
	if !automata.HasPrefix(ck.Align, c.Prefix) {
		panic("kernel: resume constraint prefix does not align with checkpoint")
	}
	l := len(c.Prefix)
	align := ck.Align
	zdim := ck.zdim

	if sc == nil {
		sc = constrainScratchPool.Get().(*ConstrainScratch)
		defer constrainScratchPool.Put(sc)
	}
	// One view serves the whole call: traceback records index into this
	// view's layer cell lists. A lazy handle materializes its full DP
	// here on first touch; the published view never changes afterwards.
	vw, err := ck.ensureView(p, sc)
	if err != nil {
		return nil, nil, nil, math.Inf(-1), false, err
	}
	layers := vw.layers

	if c.Mode == transducer.ExactOnly {
		last := &layers[v.N-1]
		best, bj := math.Inf(-1), -1
		for _, j32 := range last.bucket(l) {
			j := int(j32)
			cell := int(last.cells[j])
			if nt.Accept[(cell/zdim)%nt.States] && last.score[j] > best {
				best, bj = last.score[j], j
			}
		}
		if bj < 0 {
			return nil, nil, nil, math.Inf(-1), false, nil
		}
		nodes = make([]automata.Symbol, v.N)
		states = make([]int, v.N)
		ck.walkPrefix(layers, v.N-1, bj, nodes, states)
		return automata.CloneString(align[:l]), nodes, states, best, true, nil
	}

	pastSize := v.K * nt.States
	sc.cur.ensure(pastSize)
	sc.next.ensure(pastSize)
	sc.cur.reset()
	sc.next.reset()
	if cap(sc.back) < v.N*pastSize {
		sc.back = make([]int32, v.N*pastSize)
	}
	back := sc.back[:v.N*pastSize]
	sc.cross = sc.cross[:0]
	sc.cands = sc.cands[:0]
	neg := math.Inf(-1)

	// The exact-extension answer is found first: the final comparison
	// needs it either way, and its score seeds the selection bound.
	exactBest, exactIdx := neg, -1
	if c.Mode == transducer.PrefixAndExtensions {
		last := &layers[v.N-1]
		for _, j32 := range last.bucket(l) {
			j := int(j32)
			cell := int(last.cells[j])
			if nt.Accept[(cell/zdim)%nt.States] && last.score[j] > exactBest {
				exactBest, exactIdx = last.score[j], j
			}
		}
	}

	// Phase 1: select the boundary-crossing candidates in exactly the
	// order the exhaustive sweep would inject them — position 0 straight
	// off the initial distribution (the whole prefix plus at least one
	// symbol inside a single emission), later positions off the z-window
	// of each checkpoint layer (only cells with l−MaxEmit < z ≤ l can
	// cross; the z-bucket index serves them without scanning the layer).
	// With bounds, each candidate's score + potential is exact, so their
	// running maximum L is the constrained optimum so far and anything
	// below its threshold can be dropped at enumeration time: L only
	// grows, so such a candidate would fail the final threshold too, and
	// it cannot raise L by definition. The threshold slack covers the
	// float-association error between a forward DP sum and the two-term
	// score + potential bound; both are within a few ulps of the real
	// path weight, so a relative 1e-9 dwarfs it.
	prune := b != nil
	L := exactBest
	tau := neg
	if prune && L > neg {
		tau = L - 1e-9*(1+math.Abs(L))
	}
	var prunedCt, visitedCt, skipCands, skipCells uint64
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
				cd.bound = lp + b.pos(0, cell)
				if cd.bound > L {
					L = cd.bound
					tau = L - 1e-9*(1+math.Abs(L))
				} else if cd.bound < tau {
					skipCands++
					continue
				}
			}
			sc.cands = append(sc.cands, cd)
		}
	}
	winLo := l - nt.MaxEmit + 1
	ntOff := nt.Off
	syms := nt.Syms
	for i := 1; i < v.N; i++ {
		if err := p.Step(); err != nil {
			return nil, nil, nil, neg, false, err
		}
		prevLayer := &layers[i-1]
		if int(prevLayer.maxZ)+nt.MaxEmit <= l || prevLayer.n == 0 {
			continue
		}
		win := prevLayer.window(winLo, l, &sc.win)
		if len(win) == 0 {
			continue
		}
		st := &v.Steps[i-1]
		var prow0, prow1 []float64
		if prune {
			prow0 = b.pot[(i-1)*pastSize : i*pastSize]
			prow1 = b.pot[i*pastSize : (i+1)*pastSize]
		}
		for _, pj := range win {
			pi := int(pj)
			pcell := prevLayer.cells[pi]
			base := prevLayer.score[pi]
			xq := int(pcell) / zdim
			if prune && base+prow0[xq] < tau {
				// The backward recurrence makes score + past-zone
				// potential an upper bound on every candidate this cell
				// can produce, so the whole edge fan-out is skipped.
				skipCells++
				continue
			}
			z := int(pcell) - xq*zdim
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
							tau = L - 1e-9*(1+math.Abs(L))
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
	if len(sc.cands) == 0 || (prune && L == neg) {
		// No viable crossing: the exact answer (if any) stands alone.
		if prune {
			b.addStats(0, 0, selCands, skipCands, skipCells)
		}
		if rs != nil && rs.Trace {
			// Empty past-zone frontier: every future chain into the past
			// is cut, so all-nil rows are a complete trace.
			captureTrace(rs, v.N, pastSize, 0, nil, nil)
		}
		if exactIdx >= 0 {
			nodes = make([]automata.Symbol, v.N)
			states = make([]int, v.N)
			ck.walkPrefix(layers, v.N-1, exactIdx, nodes, states)
			return automata.CloneString(align[:l]), nodes, states, exactBest, true, nil
		}
		return nil, nil, nil, neg, false, nil
	}

	// Phase 2: the past-zone sweep, advancing before injecting at each
	// position (ties keep the incumbent, so this ordering is part of the
	// determinism contract) and sorting each layer into canonical order
	// before expansion. tau is final here: L stopped growing with the
	// last candidate.
	ci := 0
	for ; ci < len(sc.cands) && sc.cands[ci].pos == 0; ci++ {
		cd := &sc.cands[ci]
		if prune && cd.bound < tau {
			prunedCt++
			continue
		}
		if sc.cur.relax(cd.cell, cd.lp) {
			sc.cross = append(sc.cross, cd.rec)
			back[cd.cell] = -int32(len(sc.cross)) - 1
		}
	}
	for i := 1; i < v.N; i++ {
		if err := p.Step(); err != nil {
			sc.cur.reset()
			sc.next.reset()
			return nil, nil, nil, neg, false, err
		}
		hasCand := ci < len(sc.cands) && int(sc.cands[ci].pos) == i
		if len(sc.cur.list) == 0 && !hasCand {
			continue // before the first surviving crossing: O(1) per position
		}
		st := &v.Steps[i-1]
		backRow := back[i*pastSize : (i+1)*pastSize]
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
		for ; ci < len(sc.cands) && int(sc.cands[ci].pos) == i; ci++ {
			cd := &sc.cands[ci]
			if prune && cd.bound < tau {
				prunedCt++
				continue
			}
			if sc.next.relax(cd.cell, cd.lp) {
				sc.cross = append(sc.cross, cd.rec)
				backRow[cd.cell] = -int32(len(sc.cross)) - 1
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
	best, bestCell := neg, int32(-1)
	for _, idx := range sc.cur.list {
		if !nt.Accept[int(idx)%nt.States] {
			continue
		}
		if s := sc.cur.val[idx]; s > best || (s == best && idx < bestCell) {
			best, bestCell = s, idx
		}
	}
	if rs != nil {
		// The final past-zone frontier, complete because the sweep ran
		// unpruned. Captured before the reset below releases the scratch.
		rs.Cells = append(rs.Cells, sc.cur.list...)
		for _, idx := range sc.cur.list {
			rs.Scores = append(rs.Scores, sc.cur.val[idx])
		}
		if rs.Trace {
			captureTrace(rs, v.N, pastSize, len(sc.cur.list), back, sc.cross)
		}
	}
	sc.cur.reset()
	if exactIdx >= 0 && exactBest >= best {
		nodes = make([]automata.Symbol, v.N)
		states = make([]int, v.N)
		ck.walkPrefix(layers, v.N-1, exactIdx, nodes, states)
		return automata.CloneString(align[:l]), nodes, states, exactBest, true, nil
	}
	if bestCell < 0 {
		return nil, nil, nil, math.Inf(-1), false, nil
	}

	nodes = make([]automata.Symbol, v.N)
	states = make([]int, v.N)
	i := v.N - 1
	cell := bestCell
	var rec crossRec
	for {
		nodes[i] = automata.Symbol(int(cell) / nt.States)
		states[i] = int(cell) % nt.States
		bk := back[i*pastSize+int(cell)]
		if bk < 0 {
			rec = sc.cross[-bk-2]
			break
		}
		cell = bk
		i--
	}
	crossPos := i
	z := 0
	if rec.layer >= 0 {
		z = int(layers[rec.layer].cells[rec.pi]) % zdim
		ck.walkPrefix(layers, int(rec.layer), int(rec.pi), nodes, states)
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
	return out, nodes, states, best, true, nil
}

// captureTrace retains the full traceback of a finished sweep into rs:
// the backpointer rows (copied out of the flat scratch into one owned
// slab, row-sliced) and the crossing-record arena. When the final
// frontier is empty, every chain into the past is unreachable, so the
// rows and records are dropped and all-nil rows stand in for them.
func captureTrace(rs *ResumeState, n, pastSize, frontierLen int, back []int32, cross []crossRec) {
	rs.pastSize = pastSize
	if frontierLen == 0 {
		rs.back = make([][]int32, n)
		rs.cross = nil
		return
	}
	flat := make([]int32, n*pastSize)
	copy(flat, back)
	rows := make([][]int32, n)
	for i := range rows {
		rows[i] = flat[i*pastSize : (i+1)*pastSize : (i+1)*pastSize]
	}
	rs.back = rows
	rs.cross = slices.Clone(cross)
}

// ResumeConstrainedIncCtx is the unpruned resume that captures its
// final past-zone frontier into rs (reusing its slices), for retention
// across appends — the sweep never prunes, because pruning leaves holes
// in the frontier, which would make the retained bound inadmissible. On
// error rs is left empty and must not be retained.
//
// It continues incrementally: when prior is a traced resume of the same
// (constraint, alignment) pair captured over a shorter prefix of v (the
// sequence has grown since), the past-zone sweep restarts from prior's
// retained frontier and relaxes only positions [prior.N, v.N), reading
// crossing candidates off the (extended) checkpoint's appended layers
// and tracing back through prior's retained rows. The result — answer,
// evidence, score, and the freshly captured rs — is bit-identical to
// the full sweep: per-cell maxima are order-independent, each path's
// score accumulates left to right exactly as the full sweep would, the
// DP at positions before prior.N cannot depend on the appended suffix,
// and the per-position advance-then-inject relax order is preserved.
// continued reports which path ran; the full sweep runs whenever the
// prior is missing, untraced, not strictly older than v, shaped for
// different tables, or the constraint is ExactOnly (whose final-layer
// read needs no sweep at all). The caller must guarantee prior really
// came from a resolve of c at ck's alignment — the ranked evaluator's
// retention map keys entries by canonical constraint identity.
func ResumeConstrainedIncCtx(ctx context.Context, nt *NFATables, v *SeqView, ck *Checkpoint, c transducer.Constraint, prior, rs *ResumeState, sc *ConstrainScratch) (out, nodes []automata.Symbol, states []int, logp float64, ok bool, continued bool, err error) {
	p := NewPoll(ctx)
	if prior != nil && c.Mode != transducer.ExactOnly &&
		prior.N >= 1 && prior.N < v.N &&
		prior.back != nil && len(prior.back) >= prior.N &&
		prior.pastSize == v.K*nt.States {
		out, nodes, states, logp, ok, err = resumeConstrainedExtend(p, nt, v, ck, c, prior, rs, sc)
		return out, nodes, states, logp, ok, true, err
	}
	out, nodes, states, logp, ok, err = resumeConstrained(p, nt, v, ck, c, nil, rs, sc)
	return out, nodes, states, logp, ok, false, err
}

// resumeConstrainedExtend is the continuation sweep behind
// ResumeConstrainedIncCtx: seed the past-zone frontier from prior,
// relax positions [prior.N, v.N) with the same advance-then-inject
// order as the full sweep, and capture the grown trace into rs.
func resumeConstrainedExtend(p *Poll, nt *NFATables, v *SeqView, ck *Checkpoint, c transducer.Constraint, prior, rs *ResumeState, sc *ConstrainScratch) (out, nodes []automata.Symbol, states []int, logp float64, ok bool, err error) {
	if ck.states != nt.States || ck.n != v.N {
		panic("kernel: resume checkpoint was built against different tables or sequence")
	}
	if !automata.HasPrefix(ck.Align, c.Prefix) {
		panic("kernel: resume constraint prefix does not align with checkpoint")
	}
	rs.N = v.N
	rs.Cells = rs.Cells[:0]
	rs.Scores = rs.Scores[:0]
	rs.Trace = true
	l := len(c.Prefix)
	align := ck.Align
	zdim := ck.zdim
	pastSize := v.K * nt.States
	neg := math.Inf(-1)

	if sc == nil {
		sc = constrainScratchPool.Get().(*ConstrainScratch)
		defer constrainScratchPool.Put(sc)
	}
	vw, err := ck.ensureView(p, sc)
	if err != nil {
		return nil, nil, nil, neg, false, err
	}
	layers := vw.layers

	// The exact-extension answer reads only the final layer, which the
	// extended view has just relaxed; recomputing it fresh costs one
	// bucket scan.
	exactBest, exactIdx := neg, -1
	if c.Mode == transducer.PrefixAndExtensions {
		last := &layers[v.N-1]
		for _, j32 := range last.bucket(l) {
			j := int(j32)
			cell := int(last.cells[j])
			if nt.Accept[(cell/zdim)%nt.States] && last.score[j] > exactBest {
				exactBest, exactIdx = last.score[j], j
			}
		}
	}

	sc.cur.ensure(pastSize)
	sc.next.ensure(pastSize)
	sc.cur.reset()
	sc.next.reset()
	for i, cell := range prior.Cells {
		sc.cur.relax(cell, prior.Scores[i])
	}

	// Combined traceback state: prior rows shared (immutable), appended
	// positions get fresh rows; crossing records extend prior's arena at
	// stable indices.
	rows := make([][]int32, v.N)
	copy(rows, prior.back[:prior.N])
	cross := prior.cross[:len(prior.cross):len(prior.cross)]

	winLo := l - nt.MaxEmit + 1
	ntOff := nt.Off
	syms := nt.Syms
	for i := prior.N; i < v.N; i++ {
		if err := p.Step(); err != nil {
			sc.cur.reset()
			sc.next.reset()
			return nil, nil, nil, neg, false, err
		}
		row := make([]int32, pastSize)
		rows[i] = row
		st := &v.Steps[i-1]
		if len(sc.cur.list) > 0 {
			sc.cur.sortList()
			for _, idx := range sc.cur.list {
				base := sc.cur.val[idx]
				x := int(idx) / nt.States
				q := int(idx) - x*nt.States
				for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
					y := int(st.Col[e])
					lp := base + st.LogVal[e]
					ti := q*syms + y
					tlo, thi := ntOff[ti], ntOff[ti+1]
					for t := tlo; t < thi; t++ {
						cell := int32(y*nt.States + int(nt.Succ[t]))
						if sc.next.relax(cell, lp) {
							row[cell] = idx
						}
					}
				}
			}
		}
		prevLayer := &layers[i-1]
		if int(prevLayer.maxZ)+nt.MaxEmit > l && prevLayer.n > 0 {
			for _, pj := range prevLayer.window(winLo, l, &sc.win) {
				pi := int(pj)
				pcell := prevLayer.cells[pi]
				base := prevLayer.score[pi]
				xq := int(pcell) / zdim
				z := int(pcell) - xq*zdim
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
						if sc.next.relax(cell, lp) {
							cross = append(cross, crossRec{layer: int32(i - 1), pi: int32(pi), edge: t})
							row[cell] = -int32(len(cross)) - 1
						}
					}
				}
			}
		}
		sc.cur, sc.next = sc.next, sc.cur
		sc.next.reset()
	}

	// Final argmax with canonical tie-breaking, then the grown capture.
	best, bestCell := neg, int32(-1)
	for _, idx := range sc.cur.list {
		if !nt.Accept[int(idx)%nt.States] {
			continue
		}
		if s := sc.cur.val[idx]; s > best || (s == best && idx < bestCell) {
			best, bestCell = s, idx
		}
	}
	rs.Cells = append(rs.Cells, sc.cur.list...)
	for _, idx := range sc.cur.list {
		rs.Scores = append(rs.Scores, sc.cur.val[idx])
	}
	rs.pastSize = pastSize
	if len(sc.cur.list) == 0 {
		rs.back = make([][]int32, v.N)
		rs.cross = nil
	} else {
		rs.back = rows
		rs.cross = cross
	}
	sc.cur.reset()

	if exactIdx >= 0 && exactBest >= best {
		nodes = make([]automata.Symbol, v.N)
		states = make([]int, v.N)
		ck.walkPrefix(layers, v.N-1, exactIdx, nodes, states)
		return automata.CloneString(align[:l]), nodes, states, exactBest, true, nil
	}
	if bestCell < 0 {
		return nil, nil, nil, neg, false, nil
	}

	nodes = make([]automata.Symbol, v.N)
	states = make([]int, v.N)
	i := v.N - 1
	cell := bestCell
	var rec crossRec
	for {
		nodes[i] = automata.Symbol(int(cell) / nt.States)
		states[i] = int(cell) % nt.States
		bk := rows[i][cell]
		if bk < 0 {
			rec = cross[-bk-2]
			break
		}
		cell = bk
		i--
	}
	crossPos := i
	z := 0
	if rec.layer >= 0 {
		z = int(layers[rec.layer].cells[rec.pi]) % zdim
		ck.walkPrefix(layers, int(rec.layer), int(rec.pi), nodes, states)
	}
	w := nt.Emit[nt.EmitPtr[rec.edge]:nt.EmitPtr[rec.edge+1]]
	out = make([]automata.Symbol, 0, z+len(w)+(v.N-1-crossPos)*nt.MaxEmit)
	out = append(out, align[:z]...)
	out = append(out, w...)
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
	return out, nodes, states, best, true, nil
}

// ConstrainedViterbi solves the constrained top-answer problem from
// scratch: a checkpoint aligned to the constraint's own prefix followed
// by a resume, gated and pruned by b when it is non-nil (nil runs the
// exhaustive sweep). The checkpoint is discarded; enumeration layers
// that reuse checkpoints across Lawler children call
// BuildCheckpointBoundedCtx and ResumeConstrainedBoundedCtx directly.
func ConstrainedViterbi(nt *NFATables, v *SeqView, c transducer.Constraint, b *Bounds, sc *ConstrainScratch) (out, nodes []automata.Symbol, states []int, logp float64, ok bool) {
	if sc == nil {
		sc = constrainScratchPool.Get().(*ConstrainScratch)
		defer constrainScratchPool.Put(sc)
	}
	ck, _ := buildCheckpoint(nil, nt, v, c.Prefix, b, sc)
	out, nodes, states, logp, ok, _ = resumeConstrained(nil, nt, v, ck, c, b, nil, sc)
	return out, nodes, states, logp, ok
}
