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
// NewEnumerator(t, m, WithTables(nt)) — same resolve alignments, same
// kernel calls, same deterministic tie handling — but strips the parts
// of the general enumerator that profiling shows dominate at window
// scale, where each enumeration is a few dozen microseconds:
//
//   - no string checkpoint keys or LRU bookkeeping: within one window's
//     top-k drain at most k+1 alignments exist (the root's plus one per
//     emitted answer), so checkpoints live in a small ring compared by
//     symbol content;
//   - one ConstrainScratch reused across every checkpoint
//     materialization and resume of the sweep, instead of per-call pool
//     round trips (parallel window fan-out uses one Sweeper per worker).
//
// Checkpoints never leak across windows: TopK resets the ring, since a
// checkpoint is only meaningful against the view it was built from.
type Sweeper struct {
	t  *transducer.Transducer
	nt *kernel.NFATables
	sc kernel.ConstrainScratch
	// ring holds this window's checkpoints; at most k+1 entries are ever
	// live, so TopK sizes it once and lookups are a short linear scan.
	ring []sweepCkpt
	// b holds the weight-pushed potential storage, rebuilt in place each
	// TopK (one backward max-plus pass, amortized by the k-answer drain
	// it then prunes); cur is b when the current window is long enough
	// for pruning to pay for the backward pass, nil otherwise.
	b   *kernel.Bounds
	cur *kernel.Bounds
}

type sweepCkpt struct {
	align []automata.Symbol
	ck    *kernel.Checkpoint
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
	return &Sweeper{t: t, nt: nt}
}

// PruneStats reports the pruning-efficacy counters accumulated across
// the sweeper's windows (zero while every window is shorter than
// kernel.BoundsMinN).
func (s *Sweeper) PruneStats() kernel.PruneStats { return s.b.Stats() }

func sameAlign(a, b []automata.Symbol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkpoint returns the ring's handle aligned to align, adding one on a
// miss. The window's drain materializes the DP only if a resolve reads
// it, reusing a view from s.sc's freelist, and Recycle returns it there.
func (s *Sweeper) checkpoint(v *kernel.SeqView, align []automata.Symbol) *kernel.Checkpoint {
	for i := range s.ring {
		if sameAlign(s.ring[i].align, align) {
			return s.ring[i].ck
		}
	}
	ck := kernel.NewLazyCheckpoint(s.nt, v, align, s.cur)
	s.ring = append(s.ring, sweepCkpt{align: align, ck: ck})
	return ck
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
	// Checkpoints are view-specific, so the previous window's ring is
	// dead; recycling its layer storage into the scratch lets this
	// window's builds run allocation-free (the ring is private to this
	// sweeper, so recycling is safe — see kernel.ConstrainScratch.Recycle).
	for i := range s.ring {
		s.sc.Recycle(s.ring[i].ck)
		s.ring[i] = sweepCkpt{}
	}
	s.ring = s.ring[:0]
	if cap(s.ring) < k+1 {
		s.ring = make([]sweepCkpt, 0, k+1)
	}
	s.cur = nil
	if v.N >= kernel.BoundsMinN {
		s.b = kernel.NewBoundsInto(s.b, s.nt, v)
		s.cur = s.b
	}
	en := lawler.New(lawlerConfig(func(ctx context.Context, c transducer.Constraint, align []automata.Symbol, _ *kernel.ResumeState) (resolution, bool, error) {
		o, logE, ok, err := kernel.ResumeConstrainedBoundedCtx(ctx, s.nt, v, s.checkpoint(v, align), c, s.cur, &s.sc)
		return resolution{Answer: Answer{Output: o, LogEmax: logE}}, ok, err
	}))
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
