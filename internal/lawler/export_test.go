package lawler

import "markovseq/internal/transducer"

// Seed is one region of a seeded enumeration (NewSeeded): a constraint,
// the parent payload its resolver locates shared work through, the prior
// its first resolve receives, and an admissible bound on its best score.
type Seed[T any] struct {
	C      transducer.Constraint
	Parent T
	Prior  T
	Root   bool
	Bound  float64
}

// NewSeeded is the enumeration whose queue starts as seeds, unresolved
// under their bounds and numbered in slice order: the reference the tie
// order tests hold Carry's successors and canonical tie-breaks to.
func NewSeeded[T any](cfg Config[T], seeds []Seed[T]) *Enumerator[T] {
	e := newEnumerator(cfg)
	for _, s := range seeds {
		e.push(s.C, s.Parent, s.Prior, s.Root, s.Bound)
	}
	return e
}

// Retained returns how many emitted and how many dead regions e keeps
// for Carry.
func Retained[T any](e *Enumerator[T]) (emitted, dead int) {
	return len(e.emitted), len(e.dead)
}
