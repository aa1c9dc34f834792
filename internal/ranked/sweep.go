package ranked

import (
	"context"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/lawler"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// Sweeper is the lean per-window form of the ranked enumerator for
// sliding-window sweeps: one top-k drain per window, many windows per
// sweep. It emits exactly the answer sequence of
// NewEnumerator(t, m, WithTables(nt)) — same resolve checkpoints, same
// kernel calls, same deterministic tie handling — but strips the parts
// of the general enumerator that profiling shows dominate at window
// scale, where each enumeration is a few dozen microseconds:
//
//   - checkpoint handles for only the answers whose children the k-answer
//     drain can reach: not the k-th answer's;
//   - one ConstrainScratch reused across every checkpoint
//     materialization and resume of the sweep, instead of per-call pool
//     round trips (parallel window fan-out uses one Sweeper per worker).
//
// Checkpoints never leak across windows: TopK recycles the previous
// window's handles, since a checkpoint is only meaningful against the
// view it was built from.
type Sweeper struct {
	nt *kernel.NFATables
	sc kernel.ConstrainScratch
	// made lists the handles of the current window's drain, the root's
	// first; the next window recycles them.
	made []*kernel.Checkpoint
	// v is the current window's view, k its drain depth and emitted the
	// answers emitted so far.
	v          *kernel.SeqView
	k, emitted int
	// b holds the weight-pushed potential storage, rebuilt in place each
	// TopK (one backward max-plus pass, amortized by the k-answer drain
	// it then prunes); cur is b when the current window is long enough
	// for pruning to pay for the backward pass, nil otherwise.
	b   *kernel.Bounds
	cur *kernel.Bounds
	// lazyHandles counts the handles the sweep made, lazyLayers the
	// layers those of finished windows materialized (kernel.PruneStats).
	lazyHandles, lazyLayers uint64
}

// NewSweeper builds a sweeper for t. WithTables reuses prepared base
// tables; other options are ignored. Not safe for concurrent use.
func NewSweeper(t *transducer.Transducer, opts ...Option) *Sweeper {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	nt := cfg.nt
	if nt == nil {
		nt = kernel.NewNFATables(t)
	}
	return &Sweeper{nt: nt}
}

// PruneStats reports the counters accumulated across the sweeper's
// windows: the pruning-efficacy counters (zero while every window is
// shorter than kernel.BoundsMinN), the checkpoint handles it made, and
// the layers materialized by the handles of every window but the
// current one, which TopK counts as it recycles them.
func (s *Sweeper) PruneStats() kernel.PruneStats {
	st := s.b.Stats()
	st.LazyHandles, st.LazyLayers = s.lazyHandles, s.lazyLayers
	return st
}

// handle returns a new lazy handle aligned to align over the window. The
// drain materializes its DP only if a resolve reads it, reusing a view
// from s.sc's freelist, and Recycle returns it there.
func (s *Sweeper) handle(align []automata.Symbol) *kernel.Checkpoint {
	ck := kernel.NewLazyCheckpoint(s.nt, s.v, align)
	s.made = append(s.made, ck)
	s.lazyHandles++
	return ck
}

// rootHandle returns the window's root handle, the first it made.
func (s *Sweeper) rootHandle() *kernel.Checkpoint {
	if len(s.made) == 0 {
		s.handle(nil)
	}
	return s.made[0]
}

// emit gives an emitted answer with children a handle, except the k-th
// answer: the drain stops there and never reaches its children.
func (s *Sweeper) emit(top *resolution, children bool) {
	s.emitted++
	if children && s.emitted < s.k {
		top.ck = s.handle(top.Output)
	}
}

// TopK returns the k highest-E_max answers of the sweeper's transducer
// over m in ranked order — bit-identical to draining the engine-backed
// enumerator k times (the determinism contract of kernel/constrained.go
// plus the sequential Lawler order make both paths emit the same
// answers with the same float bits). A non-nil error is ctx.Err(); the
// answers already collected are discarded by the caller (the window is
// incomplete).
func (s *Sweeper) TopK(ctx context.Context, m *markov.Sequence, k int) ([]Answer, error) {
	if k <= 0 {
		return nil, ctx.Err()
	}
	v := m.View()
	// Checkpoints are view-specific, so the previous window's handles are
	// dead; recycling their layer storage into the scratch lets this
	// window's builds run allocation-free (the handles are private to this
	// sweeper, so recycling is safe — see kernel.ConstrainScratch.Recycle).
	for i, ck := range s.made {
		s.lazyLayers += uint64(ck.MaterializedLayers())
		s.sc.Recycle(ck)
		s.made[i] = nil
	}
	s.made = s.made[:0]
	s.v, s.k, s.emitted = v, k, 0
	s.cur = nil
	if v.N >= kernel.BoundsMinN {
		s.b = kernel.NewBoundsInto(s.b, s.nt, v)
		s.cur = s.b
	}
	en := lawler.New(lawlerConfig(s, func(ctx context.Context, c transducer.Constraint, ck *kernel.Checkpoint, _ *kernel.ResumeState) (resolution, bool, error) {
		o, logE, ok, err := kernel.ResumeConstrainedBoundedCtx(ctx, s.nt, v, ck, c, s.cur, &s.sc)
		return resolution{Answer: Answer{Output: o, LogEmax: logE}}, ok, err
	}, false))
	out := make([]Answer, 0, k)
	for len(out) < k {
		r, _, ok, err := en.NextCtx(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, r.Answer)
	}
	return out, nil
}
