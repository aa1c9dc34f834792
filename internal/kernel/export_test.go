package kernel

import (
	"context"

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
