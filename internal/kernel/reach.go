package kernel

import (
	"context"
	"sync"

	"markovseq/internal/transducer"
)

// boolFrontier is the boolean analogue of frontier: a membership bitmap
// over the cell space plus the list of set cells, with the same
// touched-cells-only reset discipline.
type boolFrontier struct {
	on   []bool
	list []int32
}

func (f *boolFrontier) ensure(n int) {
	if cap(f.on) < n {
		f.on = make([]bool, n)
		f.list = f.list[:0]
		return
	}
	f.on = f.on[:n]
}

func (f *boolFrontier) add(i int32) {
	if !f.on[i] {
		f.on[i] = true
		f.list = append(f.list, i)
	}
}

func (f *boolFrontier) reset() {
	for _, i := range f.list {
		f.on[i] = false
	}
	f.list = f.list[:0]
}

// ReachScratch holds the reusable buffers of ConstrainedNonEmpty. Not
// safe for concurrent use; pass nil to draw from an internal pool.
type ReachScratch struct {
	cur, next boolFrontier
}

var reachScratchPool = sync.Pool{New: func() any { return new(ReachScratch) }}

// ConstrainedNonEmpty reports whether the transducer behind nt has an
// accepting run over a positive-probability world of v whose output the
// constraint admits — the nonemptiness oracle of the Theorem 4.1
// enumerator. The constraint's zone tracker is composed with the base
// tables on the fly over boolean cells (node x, state q, tracker state
// t), so no per-probe product transducer or table rebuild is needed.
func ConstrainedNonEmpty(nt *NFATables, v *SeqView, c transducer.Constraint, sc *ReachScratch) bool {
	found, _ := constrainedNonEmpty(nil, nt, v, c, sc)
	return found
}

// ConstrainedNonEmptyCtx is ConstrainedNonEmpty with step-granularity
// cancellation: the context is polled every DefaultPollInterval
// positions and the probe aborts with ctx.Err() as soon as it fires.
func ConstrainedNonEmptyCtx(ctx context.Context, nt *NFATables, v *SeqView, c transducer.Constraint, sc *ReachScratch) (bool, error) {
	return constrainedNonEmpty(NewPoll(ctx), nt, v, c, sc)
}

func constrainedNonEmpty(p *Poll, nt *NFATables, v *SeqView, c transducer.Constraint, sc *ReachScratch) (bool, error) {
	if sc == nil {
		sc = reachScratchPool.Get().(*ReachScratch)
		defer reachScratchPool.Put(sc)
	}
	tr := c.Tracker()
	tdim := tr.NumStates()
	size := v.K * nt.States * tdim
	sc.cur.ensure(size)
	sc.next.ensure(size)
	sc.cur.reset()
	sc.next.reset()

	for _, x := range v.InitIdx {
		lo, hi := nt.Edges(int(nt.Start), int(x))
		for e := lo; e < hi; e++ {
			w := nt.Emit[nt.EmitPtr[e]:nt.EmitPtr[e+1]]
			t2, ok := tr.StepString(tr.Start(), w)
			if !ok {
				continue
			}
			xq := int(x)*nt.States + int(nt.Succ[e])
			sc.cur.add(int32(xq*tdim + t2))
		}
	}
	for i := 1; i < v.N; i++ {
		if err := p.Step(); err != nil {
			sc.cur.reset()
			sc.next.reset()
			return false, err
		}
		if len(sc.cur.list) == 0 {
			return false, nil
		}
		st := &v.Steps[i-1]
		for _, idx := range sc.cur.list {
			xq := int(idx) / tdim
			t := int(idx) % tdim
			x := xq / nt.States
			q := xq % nt.States
			for e := st.RowPtr[x]; e < st.RowPtr[x+1]; e++ {
				y := int(st.Col[e])
				elo, ehi := nt.Edges(q, y)
				for tt := elo; tt < ehi; tt++ {
					w := nt.Emit[nt.EmitPtr[tt]:nt.EmitPtr[tt+1]]
					t2, ok := tr.StepString(t, w)
					if !ok {
						continue
					}
					yq := y*nt.States + int(nt.Succ[tt])
					sc.next.add(int32(yq*tdim + t2))
				}
			}
		}
		sc.cur, sc.next = sc.next, sc.cur
		sc.next.reset()
	}
	found := false
	for _, idx := range sc.cur.list {
		xq := int(idx) / tdim
		if nt.Accept[xq%nt.States] && tr.Accepting(int(idx)%tdim) {
			found = true
			break
		}
	}
	sc.cur.reset()
	return found, nil
}
