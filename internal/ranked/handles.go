package ranked

import (
	"context"
	"slices"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/transducer"
)

// Option configures an Enumerator or a Sweeper.
type Option func(*config)

type config struct {
	nt         *kernel.NFATables
	extendable bool
}

// WithWorkers is a no-op: every enumeration resolves sequentially.
//
// Deprecated: the speculative-resolution pool it sized is gone; the
// option remains only until its last caller drops it.
func WithWorkers(int) Option { return func(*config) {} }

// WithTables supplies pre-built base transducer tables (core.Prepared
// builds them once at prepare time), avoiding a rebuild per enumerator.
func WithTables(nt *kernel.NFATables) Option { return func(c *config) { c.nt = nt } }

// WithExtendable selects the append-extendable serving mode: resolves
// run unpruned and capture their final past-zone frontier, which the
// Lawler tree keeps with the region that resolved, and every answer gets
// a lazy prefix-checkpoint handle — so the whole drain
// state (the Lawler tree with its captures and checkpoint handles)
// remains valid forward state when the sequence grows and can be carried
// by ExtendEnumerator instead of being rebuilt. The answer sequence stays
// bit-identical to every other mode; the cost is forgoing the pruning
// win on each cold drain (~1.15×, see EXPERIMENTS.md "Weight-pushed
// pruning") plus the captures' memory, repaid after the first append.
// core.Engine turns this on automatically for engines reached through
// the append path (Prepared.ExtendValidated).
func WithExtendable() Option { return func(c *config) { c.extendable = true } }

// potentials returns the potentials of a pruning enumerator, computed
// on its first resolve; nil when it does not prune (see NewEnumerator).
func (e *Enumerator) potentials() *kernel.Bounds {
	if !e.prune {
		return nil
	}
	b := e.bounds.Load()
	if b == nil {
		b = kernel.NewBounds(e.nt, e.v)
		e.bounds.Store(b)
	}
	return b
}

// handles hands out the checkpoint handles of one ranked enumeration,
// which its Lawler tree owns (see resolution): rootHandle is the root
// region's, aligned to the empty prefix and made on first use, and emit
// gives the emitted answer top the handle its children resolve against,
// or none when nothing will read one.
type handles interface {
	rootHandle() *kernel.Checkpoint
	emit(top *resolution, children bool)
}

// donorReach is how many trailing output symbols a derivation donor may
// leave unshared: a derived view with a shorter shared prefix owns most
// of its columns, and is a poor donor for the derivations after it.
const donorReach = 3

// rootHandle returns the root region's checkpoint handle, made on the
// first root resolve.
func (e *Enumerator) rootHandle() *kernel.Checkpoint {
	if e.root == nil {
		e.root = e.handle(nil, nil)
	}
	return e.root
}

// handle returns a lazy checkpoint handle aligned to align, derived
// from donor when it is non-nil, and counts it. Its DP is materialized
// by the first resolve that reads it, so an answer whose children never
// reach the queue front costs one O(1) object.
func (e *Enumerator) handle(align []automata.Symbol, donor *kernel.Checkpoint) *kernel.Checkpoint {
	e.lazyHandles.Add(1)
	return kernel.NewLazyCheckpointFrom(e.nt, e.v, align, donor)
}

// emit gives the emitted answer top the checkpoint its children resolve
// against. In extendable mode every answer gets one, because after an
// append it is also the checkpoint of the answer's exact singleton; the
// handle the answer's resolve read (top.ck) is kept when it is aligned to
// the output and is otherwise the new handle's derivation donor, when
// their common prefix leaves at most donorReach output symbols unshared.
// Otherwise only an answer with children gets one, with no donor: the
// other modes' resolves note no handle.
func (e *Enumerator) emit(top *resolution, children bool) {
	read := top.ck
	if !children && !e.extendable || read != nil && slices.Equal(read.Align, top.Output) {
		return
	}
	if read != nil && automata.CommonPrefix(read.Align, top.Output) < len(top.Output)-donorReach {
		read = nil
	}
	top.ck = e.handle(top.Output, read)
}

// resolveAnswer resolves one Lawler region against ck, the checkpoint of
// its parent answer, with cancellation of the resume DP, including the
// checkpoint materialization it may trigger, which it counts. In
// extendable mode the resume also captures its final past-zone frontier
// and survivor store into the returned resolution's rs, which the tree
// keeps with the region, and notes ck, which emit reads; the region's
// next resolve after an append receives rs as prior and continues it
// over the appended positions only, in O(appended suffix).
func (e *Enumerator) resolveAnswer(ctx context.Context, c transducer.Constraint, ck *kernel.Checkpoint, prior *kernel.ResumeState) (r resolution, ok bool, err error) {
	fresh := ck.MaterializedLayers() == 0
	if e.extendable {
		r.rs, r.ck = new(kernel.ResumeState), ck
		r.Output, r.LogEmax, ok, _, err = kernel.ResumeConstrainedIncCtx(ctx, e.nt, e.v, ck, c, prior, r.rs, nil)
	} else {
		r.Output, r.LogEmax, ok, err = kernel.ResumeConstrainedBoundedCtx(ctx, e.nt, e.v, ck, c, e.potentials(), nil)
	}
	if fresh {
		e.lazyLayers.Add(uint64(ck.MaterializedLayers()))
	}
	return r, ok, err
}
