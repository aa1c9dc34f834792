package kernel

import (
	"context"
	"unsafe"

	"markovseq/internal/automata"
	"markovseq/internal/transducer"
)

// ResumeEvidence is the resume behind ResumeConstrainedBoundedCtx (b
// non-nil or rs nil) and ResumeConstrainedIncCtx (b nil, rs non-nil),
// also returning the run's evidence — nodes and states — which the
// production entry points do not assemble, for tests that compare it.
func ResumeEvidence(ctx context.Context, nt *NFATables, v *SeqView, ck *Checkpoint, c transducer.Constraint, b *Bounds, prior, rs *ResumeState, sc *ConstrainScratch) (out, nodes []automata.Symbol, states []int, logp float64, ok, continued bool, err error) {
	return resumeConstrained(NewPoll(ctx), nt, v, ck, c, b, prior, rs, sc, true)
}

// MaterializedCheckpoint returns a checkpoint handle for align whose DP
// has already been materialized through sc (nil draws from the internal
// pool), for tests that resume against a pre-built checkpoint or measure
// the build alone. ctx cancels the build.
func MaterializedCheckpoint(ctx context.Context, nt *NFATables, v *SeqView, align []automata.Symbol, b *Bounds, sc *ConstrainScratch) (*Checkpoint, error) {
	if sc == nil {
		sc = constrainScratchPool.Get().(*ConstrainScratch)
		defer constrainScratchPool.Put(sc)
	}
	ck := NewLazyCheckpoint(nt, v, align, b)
	if _, err := ck.ensureView(NewPoll(ctx), sc); err != nil {
		return nil, err
	}
	return ck, nil
}

// LayerHeaderBytes is the size of one retained layer header.
const LayerHeaderBytes = unsafe.Sizeof(ckLayer{})

// ViewStorage is what a materialized view owns: its header array, the
// cells of the layers it relaxed itself, and the length and capacity of
// each array of its slab (cells, score, roots). Shared counts the cells
// its layers read from roots in other views' slabs. Base reports whether
// the handle still links an extension base.
type ViewStorage struct {
	Headers, HeadersCap int
	Cells               int
	Shared              int
	Len, Cap            [3]int
	Base                bool
}

// CheckpointStorage reports the storage of ck's view; ok is false while
// ck is unmaterialized.
func CheckpointStorage(ck *Checkpoint) (st ViewStorage, ok bool) {
	vw := ck.view.Load()
	if vw == nil {
		return st, false
	}
	s := vw.slab
	for i := range vw.layers {
		l := &vw.layers[i]
		rt := l.root(i)
		st.Shared += int(rt.n)
		if l.s == s && l.n > 0 {
			st.Cells += int(l.n - rt.n)
		}
	}
	st.Headers, st.HeadersCap = len(vw.layers), cap(vw.layers)
	st.Len = [3]int{len(s.cells), len(s.score), len(s.roots)}
	st.Cap = [3]int{cap(s.cells), cap(s.score), cap(s.roots)}
	st.Base = ck.base.Load() != nil
	return st, true
}

// layerCells returns the cells, in stored order, and forward scores of
// the layer at position i of vw.
func layerCells(vw *ckView, i int) (cells []int32, scores []float64) {
	l := &vw.layers[i]
	rc, oc := l.cells(i)
	rsc, osc := l.scores(i)
	return append(rc[:len(rc):len(rc)], oc...), append(rsc[:len(rsc):len(rsc)], osc...)
}

// ViewLayer returns the cells, in stored order, and forward scores of
// the layer at position i of ck's own materialized view; ok is false
// while ck is unmaterialized.
func ViewLayer(ck *Checkpoint, i int) (cells []int32, scores []float64, ok bool) {
	vw := ck.view.Load()
	if vw == nil {
		return nil, nil, false
	}
	cells, scores = layerCells(vw, i)
	return cells, scores, true
}

// FrontierLayer returns the layer FrontierBound(maxN, ·) prices: the
// cells, in stored order, and forward scores at position n-1 of the
// first materialized view in ck's extension chain, n = min(its length,
// maxN). ok is false exactly when FrontierBound's is.
func FrontierLayer(ck *Checkpoint, maxN int) (cells []int32, scores []float64, n int, ok bool) {
	c, vw := firstView(ck)
	if maxN < 1 || vw == nil {
		return nil, nil, 0, false
	}
	n = min(c.n, maxN)
	cells, scores = layerCells(vw, n-1)
	return cells, scores, n, true
}

// ViewsBuilt returns the number of views materialized so far by every
// checkpoint in the process.
func ViewsBuilt() uint64 { return viewSeq.Load() }

// HeaderArrays counts the layer-header arrays reachable from ck: those
// of the materialized views along its extension links, its own included.
func HeaderArrays(ck *Checkpoint) int {
	n := 0
	for c := ck; c != nil; c = c.base.Load() {
		if c.view.Load() != nil {
			n++
		}
	}
	return n
}
