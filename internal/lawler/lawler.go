// Package lawler is the generic Lawler–Murty ranked-enumeration core
// shared by ranked.Enumerator (answers by decreasing E_max, Theorem 4.3)
// and sproj.ImaxEnumerator (indexed answers by decreasing I_max). It
// owns the subproblem queue and its lazy Murty resolution: a child
// subproblem inherits its parent's score as an admissible upper bound and
// is only resolved (one constrained-Viterbi call) if it reaches the front
// of the queue. The drain is sequential — one resolution at a time, on
// the caller's goroutine.
//
// Items are ordered by score descending with insertion sequence as the
// tie-breaker, so ties are stable across runs.
// Config.Tie optionally replaces the insertion-sequence tie-break on
// emissions with a canonical payload order, making the emitted sequence
// identical even across differently-constructed enumerations of the same
// answer set (the cross-append reseed relies on this). Under Tie a child's
// inherited bound ties every answer of an exactly tied score class, which
// would force resolving each tied child before the next tied emission;
// Config.Floor extends laziness to the tie-break with a payload floor per
// region, so only children that could precede the front are resolved.
package lawler

import (
	"container/heap"
	"context"

	"markovseq/internal/transducer"
)

// Config describes one ranked enumeration. T is the payload of a
// resolved subproblem (the answer plus whatever the caller needs to
// derive children from it).
type Config[T any] struct {
	// Root is the constraint whose answer set is enumerated.
	Root transducer.Constraint
	// Resolve returns the best answer of the subproblem, its score, and
	// ok=false when the subproblem is empty. parent is the payload of
	// the resolved parent subproblem this constraint was derived from
	// (the zero T at the root, distinguished by root=true); resolvers
	// use it to locate shared work such as prefix checkpoints. prior is
	// the payload the region's previous resolve returned, carried in by
	// Carry (the zero T when the region never resolved): a resolver may
	// return state in its payload, also with ok=false, for the region's
	// next resolve after an append to continue from. Resolve must be
	// deterministic. A non-nil error (normally ctx.Err() from a
	// cancelled context) aborts the resolution without deciding the
	// subproblem: the item is pushed back unresolved with its prior, so
	// a later NextCtx call with a live context resumes the enumeration
	// at exactly the same point.
	Resolve func(ctx context.Context, c transducer.Constraint, parent T, root bool, prior T) (T, float64, bool, error)
	// Children partitions the subproblem's remaining answers after its
	// top has been emitted. The returned order is part of the
	// deterministic tie-break and must not depend on timing. top points
	// at the emitted payload, which Children may complete in place
	// before the children, as their parent, and the caller receive
	// copies of it (the ranked enumerator attaches the checkpoint the
	// children resolve against).
	Children func(c transducer.Constraint, top *T) []transducer.Constraint
	// Tie, when non-nil, makes the emission order on exact score ties a
	// canonical function of the payloads instead of the insertion
	// sequence: resolved items with equal scores order by Tie (negative
	// means a first), and an unresolved item whose bound ties the front
	// is resolved before anything tied is emitted. Callers that must
	// emit identical sequences across differently-constructed
	// enumerations of the same answer set (the cross-append reseed
	// rebuilds the queue in a different insertion order) need this;
	// with Tie nil the insertion sequence decides, which is still
	// deterministic for any one construction.
	Tie func(a, b T) int
	// Floor, consulted only with Tie, returns a payload that every answer
	// of region c sorts at or after under Tie — strictly after when
	// strict. An unresolved item whose bound ties the front then stays
	// unresolved when its floor already sorts after the front: no answer
	// of its region could be emitted first, so the emitted sequence is
	// the one Floor nil yields, with far fewer resolutions inside large
	// exact-tie classes. Floor is called again whenever an unresolved
	// item meets an exact score tie in the queue, so it must be cheap
	// and deterministic.
	Floor func(c transducer.Constraint) (floor T, strict bool)
	// Carried keeps what Carry needs: every emitted region, every region
	// resolved empty, and each resolved region's parent payload. Without
	// it the enumeration keeps only its queue, a resolved region drops
	// its parent, and Carry returns nil, so a payload stays reachable
	// only while a queued region can still read it.
	Carried bool
}

type item[T any] struct {
	c      transducer.Constraint
	parent T
	// top is the payload of the region's last resolve: its best answer
	// once resolved, whatever Resolve returned when the region is dead,
	// and the prior Carry gave it before the region resolves here.
	top            T
	seq            int64
	score          float64
	root, resolved bool
	// rank places the item within its score's tie class (see tieOrder).
	// An unresolved item's floor is not stored: tieOrder asks Floor for
	// it again, which happens only on exact score ties.
	rank int8
}

// Tie-class ranks. An unresolved item without a floor could hold answers
// anywhere in its tie class, so it sorts ahead of the whole class; the
// others sort by payload — a resolved item's top, an unresolved item's
// floor — with an unresolved item just before a resolved top equal to its
// floor, or just after it when the floor is strict.
const (
	rankOpen int8 = iota - 1
	rankFloor
	rankResolved
	rankStrictFloor
)

type queue[T any] struct {
	its   []*item[T]
	tie   func(a, b T) int
	floor func(c transducer.Constraint) (T, bool)
}

func (q *queue[T]) Len() int { return len(q.its) }
func (q *queue[T]) Less(i, j int) bool {
	a, b := q.its[i], q.its[j]
	if a.score != b.score {
		return a.score > b.score
	}
	if q.tie != nil {
		if c := q.tieOrder(a, b); c != 0 {
			return c < 0
		}
	}
	return a.seq < b.seq
}

// tieOrder orders two items of equal score. Every unresolved item sorts
// at or before each answer its region can still produce, so a resolved
// item reaches the front only when no queued region can emit ahead of
// it: tied unresolved items surface first unless their floor proves
// otherwise, and among resolved ties the canonical payload order decides.
func (q *queue[T]) tieOrder(a, b *item[T]) int {
	if a.rank == rankOpen || b.rank == rankOpen {
		return int(a.rank) - int(b.rank)
	}
	if c := q.tie(q.payload(a), q.payload(b)); c != 0 {
		return c
	}
	return int(a.rank) - int(b.rank)
}

// payload is the item's position in its tie class: the resolved top, or
// the floor of an unresolved region.
func (q *queue[T]) payload(it *item[T]) T {
	if it.resolved {
		return it.top
	}
	floor, _ := q.floor(it.c)
	return floor
}
func (q *queue[T]) Swap(i, j int) { q.its[i], q.its[j] = q.its[j], q.its[i] }
func (q *queue[T]) Push(x any)    { q.its = append(q.its, x.(*item[T])) }
func (q *queue[T]) Pop() any {
	old := q.its
	n := len(old)
	it := old[n-1]
	old[n-1] = nil // release the slot so long enumerations don't retain popped items
	q.its = old[:n-1]
	return it
}

// Enumerator drains one ranked enumeration. Not safe for concurrent use.
type Enumerator[T any] struct {
	cfg Config[T]
	q   queue[T]
	seq int64

	// With Config.Carried, dead retains subproblems that resolved empty
	// instead of dropping them: a region empty over the current sequence
	// can become nonempty once the sequence grows, so Carry re-offers
	// them. emitted holds every emitted item in emission order: Carry
	// re-offers each answer, and the region that emitted it, ahead of the
	// rest.
	dead    []*item[T]
	emitted []*item[T]
}

// Region is one region of an enumeration being carried, as Carry hands
// it to its reprice function. On the way in, C, Parent and Root describe
// the region and Top is the payload of its last resolve: for an emitted
// answer (Emitted), the answer, emitted by region C; for a queued or dead
// region, its resolved top, whatever Resolve returned when it found the
// region empty, or the prior it was carried with (the zero T when it
// never resolved). reprice rewrites the fields into the successor's
// region, with Top the prior that region's first resolve receives, and
// sets Bound, an admissible bound on the region's best score.
type Region[T any] struct {
	C       transducer.Constraint
	Parent  T
	Top     T
	Root    bool
	Emitted bool
	Bound   float64
}

// Carry starts the successor of this enumeration over a grown input,
// resolving through cfg (its Root is not used). Every emitted answer, in
// emission order, then every queued or dead region is handed to reprice,
// and each enters the successor's queue unresolved, as reprice rewrote
// it, with its Bound as the provisional score. reprice must not keep the
// *Region: Carry reuses it for every region. Correct ranked emission
// needs each Bound to be admissible (at least the true best score of the
// region) and the regions to be pairwise disjoint with union equal to
// the intended answer set; the lazy-resolution invariant (nothing emits
// while an unresolved item with a higher bound is queued) then carries
// over unchanged.
//
// Among equal bounds the successor keeps the receiver's order: the
// emitted answers first, in emission order, then the other regions in
// insertion order. Carry returns nil, without calling reprice, when the
// receiver's Config.Carried is off or there is nothing to carry: nothing
// emitted and nothing queued but the root. The receiver is only read
// and stays drainable.
func (e *Enumerator[T]) Carry(cfg Config[T], reprice func(*Region[T])) *Enumerator[T] {
	if !e.cfg.Carried || len(e.emitted) == 0 && e.seq <= 1 {
		return nil
	}
	ne := newEnumerator(cfg)
	// The successor's items live in one slab, allocated at once: each
	// stays referenced — queued, dead or emitted — as long as the
	// successor is, so the slab keeps nothing alive that would be freed.
	n := len(e.emitted) + len(e.q.its) + len(e.dead)
	slab := make([]item[T], n)
	ne.q.its = make([]*item[T], n)
	// One Region for the whole pass: handing reprice a fresh one per
	// region would allocate each on the heap.
	r := new(Region[T])
	for i, it := range e.emitted {
		*r = Region[T]{C: it.c, Parent: it.parent, Top: it.top, Root: it.root, Emitted: true}
		reprice(r)
		slab[i] = ne.newItem(r.C, r.Parent, r.Top, r.Root, r.Bound, int64(i))
		ne.q.its[i] = &slab[i]
	}
	// Unemitted regions keep their insertion numbers, shifted past the
	// emitted ones, so their relative order needs no sort.
	off, k := int64(len(e.emitted)), len(e.emitted)
	for _, its := range [...][]*item[T]{e.q.its, e.dead} {
		for _, it := range its {
			*r = Region[T]{C: it.c, Parent: it.parent, Top: it.top, Root: it.root}
			reprice(r)
			slab[k] = ne.newItem(r.C, r.Parent, r.Top, r.Root, r.Bound, off+it.seq)
			ne.q.its[k] = &slab[k]
			k++
		}
	}
	ne.seq = off + e.seq
	heap.Init(&ne.q)
	return ne
}

// newItem is region c unresolved under the bound score, numbered seq and
// placed in its tie class by cfg.Floor.
func (e *Enumerator[T]) newItem(c transducer.Constraint, parent, prior T, root bool, score float64, seq int64) item[T] {
	it := item[T]{c: c, parent: parent, top: prior, root: root, seq: seq, score: score, rank: rankOpen}
	if e.q.floor != nil {
		it.rank = rankFloor
		if _, strict := e.q.floor(c); strict {
			it.rank = rankStrictFloor
		}
	}
	return it
}

// push queues region c unresolved under the bound score, numbered next
// in insertion order.
func (e *Enumerator[T]) push(c transducer.Constraint, parent, prior T, root bool, score float64) {
	it := e.newItem(c, parent, prior, root, score, e.seq)
	heap.Push(&e.q, &it)
	e.seq++
}

// newEnumerator is the empty enumeration of cfg. Its queue consults
// Floor only together with Tie.
func newEnumerator[T any](cfg Config[T]) *Enumerator[T] {
	e := &Enumerator[T]{cfg: cfg}
	e.q.tie = cfg.Tie
	if cfg.Tie != nil {
		e.q.floor = cfg.Floor
	}
	return e
}

// New prepares the enumeration of cfg.Root's answers in decreasing
// score. No resolution work happens until the first Next call.
func New[T any](cfg Config[T]) *Enumerator[T] {
	e := newEnumerator(cfg)
	var zero T
	e.push(cfg.Root, zero, zero, true, 0) // any finite bound works: the root is resolved on first pop
	return e
}

// Next returns the next answer in decreasing score, or ok=false when the
// enumeration is exhausted.
func (e *Enumerator[T]) Next() (top T, score float64, ok bool) {
	top, score, ok, _ = e.NextCtx(context.Background())
	return top, score, ok
}

// NextCtx is Next with cancellation: the context is checked between
// resolutions, and a cancelled resolution leaves its subproblem
// unresolved in the queue. On error the answer sequence already emitted
// is unaffected and a later call with a live context continues it
// exactly where it stopped — cancellation never reorders or drops
// answers, it only pauses the drain.
func (e *Enumerator[T]) NextCtx(ctx context.Context) (top T, score float64, ok bool, err error) {
	var zero T
	for len(e.q.its) > 0 {
		if err := ctx.Err(); err != nil {
			return zero, 0, false, err
		}
		it := heap.Pop(&e.q).(*item[T])
		if !it.resolved {
			top, sc, ok, err := e.cfg.Resolve(ctx, it.c, it.parent, it.root, it.top)
			if err != nil {
				// Undecided: push back unresolved so the enumeration can
				// resume deterministically.
				heap.Push(&e.q, it)
				return zero, 0, false, err
			}
			it.top = top
			if !ok {
				// Empty over the current input; retained so Carry can
				// re-offer the region.
				if e.cfg.Carried {
					e.dead = append(e.dead, it)
				}
				continue
			}
			it.resolved, it.score, it.rank = true, sc, rankResolved
			if !e.cfg.Carried {
				it.parent = zero
			}
			heap.Push(&e.q, it)
			continue
		}
		for _, child := range e.cfg.Children(it.c, &it.top) {
			// A child's best cannot exceed its parent's resolved score,
			// which therefore serves as the admissible upper bound.
			e.push(child, it.top, zero, false, it.score)
		}
		if e.cfg.Carried {
			e.emitted = append(e.emitted, it)
		}
		return it.top, it.score, true, nil
	}
	return zero, 0, false, nil
}
