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
	bounds     *kernel.Bounds
	// boundsSet tells WithBounds(nil), the exhaustive sweep, from no
	// WithBounds at all, which computes the potentials on first use.
	boundsSet bool
}

// WithWorkers is a no-op: every enumeration resolves sequentially.
//
// Deprecated: the speculative-resolution pool it sized is gone; the
// option remains only until its last caller drops it.
func WithWorkers(int) Option { return func(*config) {} }

// WithTables supplies pre-built base transducer tables (core.Prepared
// builds them once at prepare time), avoiding a rebuild per enumerator.
func WithTables(nt *kernel.NFATables) Option { return func(c *config) { c.nt = nt } }

// WithBounds supplies the weight-pushed potentials for the enumerator's
// (tables, sequence) pair: the enumerator gates its checkpoints and
// prunes its resolves exactly when it has potentials. A non-nil b
// shares one backward sweep across enumerators and probes (core.Engine
// builds them once per binding); nil runs the exhaustive sweep, which
// the pruned kernel matches bit for bit (core.Engine selects it for
// sequences shorter than kernel.BoundsMinN). Without this option the
// enumerator computes its own potentials on first use. Ignored in
// extendable mode.
func WithBounds(b *kernel.Bounds) Option {
	return func(c *config) { c.bounds, c.boundsSet = b, true }
}

// WithExtendable selects the append-extendable serving mode: resolves
// run unpruned and capture their final past-zone frontier, which the
// Lawler tree keeps with the region that resolved, and prefix
// checkpoints are built ungated as lazy handles — so the whole drain
// state (the Lawler tree with its captures and checkpoint handles)
// remains valid forward state when the sequence grows and can be carried
// by ExtendEnumerator instead of being rebuilt. The answer sequence stays
// bit-identical to every other mode; the cost is forgoing the pruning
// win on each cold drain (~1.15×, see EXPERIMENTS.md "Weight-pushed
// pruning") plus the captures' memory, repaid after the first append.
// core.Engine turns this on automatically for engines reached through
// the append path (Prepared.ExtendValidated).
func WithExtendable() Option { return func(c *config) { c.extendable = true } }

// potentials returns the enumerator's weight-pushed potentials,
// computing them on first use unless WithBounds supplied them; nil after
// WithBounds(nil) and in extendable mode (an extendable enumerator's
// retained state must be complete — unpruned frontiers, ungated
// checkpoints — to stay admissible across appends).
func (e *Enumerator) potentials() *kernel.Bounds {
	if e.lazyBounds {
		e.bounds, e.lazyBounds = kernel.NewBounds(e.nt, e.v), false
	}
	return e.bounds
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

// handle returns a lazy checkpoint handle aligned to align: ungated and
// derived from donor in extendable mode, gated by the potentials
// otherwise. Its DP is materialized by the first resolve that reads it,
// so an answer whose children never reach the queue front costs one
// O(1) object.
func (e *Enumerator) handle(align []automata.Symbol, donor *kernel.Checkpoint) *kernel.Checkpoint {
	if e.extendable {
		return kernel.NewLazyCheckpointFrom(e.nt, e.v, align, donor)
	}
	return kernel.NewLazyCheckpoint(e.nt, e.v, align, e.potentials())
}

// emit gives the emitted answer top the checkpoint its children resolve
// against. In extendable mode every answer gets one, because after an
// append it is also the checkpoint of the answer's exact singleton; the
// handle the answer's resolve read (top.ck) is kept when it is aligned to
// the output and is otherwise the new handle's derivation donor, when
// their common prefix leaves at most donorReach output symbols unshared.
// Otherwise only an answer with children gets one.
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
// checkpoint materialization it may trigger. In extendable mode the
// resume also captures its final past-zone frontier and survivor store
// into the returned resolution's rs, which the tree keeps with the
// region, and notes ck, which emit reads; the region's next resolve
// after an append receives rs as prior and continues it over the
// appended positions only, in O(appended suffix).
func (e *Enumerator) resolveAnswer(ctx context.Context, c transducer.Constraint, ck *kernel.Checkpoint, prior *kernel.ResumeState) (resolution, bool, error) {
	if !e.extendable {
		o, logE, ok, err := kernel.ResumeConstrainedBoundedCtx(ctx, e.nt, e.v, ck, c, e.potentials(), nil)
		return resolution{Answer: Answer{Output: o, LogEmax: logE}}, ok, err
	}
	rs := new(kernel.ResumeState)
	o, logE, ok, _, err := kernel.ResumeConstrainedIncCtx(ctx, e.nt, e.v, ck, c, prior, rs, nil)
	return resolution{Answer{Output: o, LogEmax: logE}, rs, ck}, ok, err
}
