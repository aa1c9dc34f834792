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
	"slices"

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
	// use it to locate shared work such as prefix checkpoints. Resolve
	// must be deterministic. A non-nil error (normally ctx.Err() from a
	// cancelled context) aborts the resolution without deciding the
	// subproblem: the item is pushed back unresolved, so a later NextCtx
	// call with a live context resumes the enumeration at exactly the
	// same point.
	Resolve func(ctx context.Context, c transducer.Constraint, parent T, root bool) (T, float64, bool, error)
	// Children partitions the subproblem's remaining answers after its
	// top has been emitted. The returned order is part of the
	// deterministic tie-break and must not depend on timing.
	Children func(c transducer.Constraint, top T) []transducer.Constraint
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
	// exact-tie classes.
	Floor func(c transducer.Constraint) (floor T, strict bool)
}

type item[T any] struct {
	c        transducer.Constraint
	parent   T
	root     bool
	seq      int64
	resolved bool
	dead     bool
	top      T
	score    float64
	// rank and floor place the item within its score's tie class (see
	// tieOrder); floor is only meaningful while the item is unresolved.
	rank  int8
	floor T
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
	its []*item[T]
	tie func(a, b T) int
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
	if c := q.tie(a.payload(), b.payload()); c != 0 {
		return c
	}
	return int(a.rank) - int(b.rank)
}

// payload is the item's position in its tie class: the resolved top, or
// the floor of an unresolved region.
func (it *item[T]) payload() T {
	if it.resolved {
		return it.top
	}
	return it.floor
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

	// dead retains subproblems that resolved empty instead of dropping
	// them: a region empty over the current sequence can become nonempty
	// once the sequence grows, so the cross-append reseed must re-offer
	// them (Frontier reports Dead=true for these).
	dead []*item[T]
	// emitted logs every emission with the subproblem that produced it,
	// in emission order — the record the cross-append reseed needs to
	// re-offer prior answers as exact singletons and to anchor fallback
	// bounds for their carried children (see EmittedLog).
	emitted []Emitted[T]
}

// Emitted is one emitted answer together with the subproblem that
// produced it: the constraint, the parent payload it was resolved
// against (the zero T with Root=true at the enumeration root), and the
// emitted payload and score.
type Emitted[T any] struct {
	C      transducer.Constraint
	Parent T
	Root   bool
	Top    T
	Score  float64
}

// Pending is one unemitted subproblem of a paused enumeration: still
// queued, or decided empty over the current input (Dead=true). Resolved
// state and old scores are deliberately omitted — neither survives an
// append, which is what Frontier exists to serve.
type Pending[T any] struct {
	C      transducer.Constraint
	Parent T
	Root   bool
	Dead   bool
}

// EmittedLog returns the emissions so far, oldest first. The slice is
// owned by the enumerator; callers must not mutate it.
func (e *Enumerator[T]) EmittedLog() []Emitted[T] { return e.emitted }

// Frontier snapshots the unemitted subproblems — queue and dead list —
// in insertion-sequence order (the deterministic tie-break order).
// Read-only: the queue is not reordered or popped.
func (e *Enumerator[T]) Frontier() []Pending[T] {
	type rec struct {
		p   Pending[T]
		seq int64
	}
	recs := make([]rec, 0, len(e.q.its)+len(e.dead))
	for _, it := range e.q.its {
		recs = append(recs, rec{Pending[T]{C: it.c, Parent: it.parent, Root: it.root}, it.seq})
	}
	for _, it := range e.dead {
		recs = append(recs, rec{Pending[T]{C: it.c, Parent: it.parent, Root: it.root, Dead: true}, it.seq})
	}
	slices.SortFunc(recs, func(a, b rec) int {
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
	out := make([]Pending[T], len(recs))
	for i := range recs {
		out[i] = recs[i].p
	}
	return out
}

// Seed is one carried subproblem for NewSeeded: a constraint, the
// parent payload its resolver should locate shared work through, and an
// externally computed admissible bound on its best score.
type Seed[T any] struct {
	C      transducer.Constraint
	Parent T
	Root   bool
	Bound  float64
}

// NewSeeded prepares an enumeration over an explicit initial frontier
// instead of a single root: every seed enters the queue unresolved with
// its Bound as the provisional heap score, numbered in slice order (the
// caller's order is the deterministic tie-break among equal bounds).
// Correct ranked emission needs each Bound to be admissible — at least
// the true best score of the seed's region — and the regions to be
// pairwise disjoint with union equal to the intended answer set; the
// lazy-resolution invariant (nothing emits while an unresolved item
// with a higher bound is queued) then carries over unchanged.
func NewSeeded[T any](cfg Config[T], seeds []Seed[T]) *Enumerator[T] {
	e := &Enumerator[T]{cfg: cfg}
	e.q.tie = cfg.Tie
	for _, s := range seeds {
		e.push(s.C, s.Parent, s.Root, s.Bound)
	}
	return e
}

// push queues region c unresolved under the bound score, numbered next
// in insertion order and placed in its tie class by cfg.Floor.
func (e *Enumerator[T]) push(c transducer.Constraint, parent T, root bool, score float64) {
	it := &item[T]{c: c, parent: parent, root: root, seq: e.seq, score: score, rank: rankOpen}
	e.seq++
	if e.cfg.Tie != nil && e.cfg.Floor != nil {
		floor, strict := e.cfg.Floor(c)
		it.floor, it.rank = floor, rankFloor
		if strict {
			it.rank = rankStrictFloor
		}
	}
	heap.Push(&e.q, it)
}

// New prepares the enumeration of cfg.Root's answers in decreasing
// score. No resolution work happens until the first Next call.
func New[T any](cfg Config[T]) *Enumerator[T] {
	e := &Enumerator[T]{cfg: cfg}
	e.q.tie = cfg.Tie
	var zero T
	e.push(cfg.Root, zero, true, 0) // any finite bound works: the root is resolved on first pop
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
			top, sc, ok, err := e.cfg.Resolve(ctx, it.c, it.parent, it.root)
			if err != nil {
				// Undecided: push back unresolved so the enumeration can
				// resume deterministically.
				heap.Push(&e.q, it)
				return zero, 0, false, err
			}
			if !ok {
				// Empty over the current input; retained for Frontier so a
				// cross-append reseed can re-offer the region.
				it.dead = true
				e.dead = append(e.dead, it)
				continue
			}
			it.resolved, it.top, it.score, it.rank = true, top, sc, rankResolved
			heap.Push(&e.q, it)
			continue
		}
		for _, child := range e.cfg.Children(it.c, it.top) {
			// A child's best cannot exceed its parent's resolved score,
			// which therefore serves as the admissible upper bound.
			e.push(child, it.top, false, it.score)
		}
		e.emitted = append(e.emitted, Emitted[T]{C: it.c, Parent: it.parent, Root: it.root, Top: it.top, Score: it.score})
		return it.top, it.score, true, nil
	}
	return zero, 0, false, nil
}
