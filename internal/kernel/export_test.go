package kernel

import (
	"context"
	"unsafe"

	"markovseq/internal/automata"
)

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
// cells and z-bucket offsets of the layers it relaxed itself, and the
// length and capacity of each array of its slab (cells, score, prev,
// zidx, zoff). Base reports whether the handle still links an extension
// base.
type ViewStorage struct {
	Headers, HeadersCap int
	Cells, ZOffs        int
	Len, Cap            [5]int
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
		if l := &vw.layers[i]; l.s == s && l.n > 0 {
			st.Cells += int(l.n)
			st.ZOffs += int(l.maxZ) + 2
		}
	}
	st.Headers, st.HeadersCap = len(vw.layers), cap(vw.layers)
	st.Len = [5]int{len(s.cells), len(s.score), len(s.prev), len(s.zidx), len(s.zoff)}
	st.Cap = [5]int{cap(s.cells), cap(s.score), cap(s.prev), cap(s.zidx), cap(s.zoff)}
	st.Base = ck.base.Load() != nil
	return st, true
}

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
