package transducer

import (
	"fmt"
	"strings"

	"markovseq/internal/automata"
)

// ConstraintMode selects which outputs relative to a prefix p a constraint
// admits.
type ConstraintMode int

const (
	// PrefixAndExtensions admits p itself and every proper extension of p.
	PrefixAndExtensions ConstraintMode = iota
	// ExtensionsOnly admits proper extensions of p but not p itself.
	ExtensionsOnly
	// ExactOnly admits exactly the string p.
	ExactOnly
)

// Constraint is a prefix constraint over the transducer's output, the
// class of constraints the paper uses to drive both the polynomial-delay
// unranked enumeration (Theorem 4.1) and the Lawler–Murty ranked
// enumeration (Theorem 4.3). A constraint admits the outputs o such that:
//
//   - o starts with Prefix,
//   - if o is longer than Prefix, its (|Prefix|+1)-th symbol is not in
//     Forbidden, and
//   - o's length obeys Mode (equal to |Prefix|, strictly longer, or either).
type Constraint struct {
	Prefix    []automata.Symbol
	Forbidden map[automata.Symbol]bool
	Mode      ConstraintMode
}

// Unconstrained returns the constraint admitting every output string.
func Unconstrained() Constraint {
	return Constraint{Mode: PrefixAndExtensions}
}

// Admits reports whether output o satisfies the constraint. It is the
// specification that the tracker construction below must agree with, and
// tests check that agreement exhaustively.
func (c Constraint) Admits(o []automata.Symbol) bool {
	if !automata.HasPrefix(o, c.Prefix) {
		return false
	}
	exact := len(o) == len(c.Prefix)
	switch c.Mode {
	case ExactOnly:
		return exact
	case ExtensionsOnly:
		if exact {
			return false
		}
	case PrefixAndExtensions:
		// either is fine
	}
	if !exact && c.Forbidden[o[len(c.Prefix)]] {
		return false
	}
	return true
}

// String renders the constraint for diagnostics.
func (c Constraint) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prefix=%v", c.Prefix)
	if len(c.Forbidden) > 0 {
		fmt.Fprintf(&b, " forbidden=%v", c.Forbidden)
	}
	switch c.Mode {
	case ExactOnly:
		b.WriteString(" exact")
	case ExtensionsOnly:
		b.WriteString(" extensions")
	}
	return b.String()
}

// Tracker is the constraint's zone automaton over output symbols, the
// 4-zone machine of DESIGN.md §2: states 0..|p|-1 mean "matched that many
// symbols of the prefix" (the matching zone); boundary means "matched all
// of p, nothing after"; past means "matched p and at least one admissible
// symbol after". The dead zone is not materialized — Step reports it as
// ok=false and callers drop the transition. It is exported so the sparse
// DP kernels (internal/kernel) can compose the tracker with the base
// transducer tables on the fly instead of materializing the
// tracker×transducer product per subproblem. A Tracker is an immutable
// value, safe for concurrent use.
type Tracker struct {
	c        Constraint
	boundary int // == len(Prefix)
	past     int // == len(Prefix) + 1
}

// Tracker returns the constraint's zone automaton.
func (c Constraint) Tracker() Tracker {
	return Tracker{c: c, boundary: len(c.Prefix), past: len(c.Prefix) + 1}
}

// NumStates returns the number of live tracker states (matching zone +
// boundary + past); live states are 0..NumStates()-1.
func (tr Tracker) NumStates() int { return tr.past + 1 }

// Start returns the tracker state for the empty output.
func (tr Tracker) Start() int { return 0 } // state 0 is boundary when |p| == 0

// Step consumes one output symbol; ok=false means the dead state.
func (tr Tracker) Step(t int, sym automata.Symbol) (int, bool) {
	switch {
	case t < tr.boundary:
		if sym == tr.c.Prefix[t] {
			return t + 1, true
		}
		return 0, false
	case t == tr.boundary:
		if tr.c.Mode == ExactOnly || tr.c.Forbidden[sym] {
			return 0, false
		}
		return tr.past, true
	default: // past
		return tr.past, true
	}
}

// StepString consumes an emission string.
func (tr Tracker) StepString(t int, out []automata.Symbol) (int, bool) {
	ok := true
	for _, sym := range out {
		t, ok = tr.Step(t, sym)
		if !ok {
			return 0, false
		}
	}
	return t, true
}

// Accepting reports whether ending the run in tracker state t yields an
// admitted output.
func (tr Tracker) Accepting(t int) bool {
	switch tr.c.Mode {
	case ExactOnly:
		return t == tr.boundary
	case ExtensionsOnly:
		return t == tr.past
	default:
		return t == tr.boundary || t == tr.past
	}
}

// DFA materializes the constraint tracker as a total DFA over the given
// alphabet: it accepts exactly the strings the constraint admits. The
// s-projector machinery uses it to push output prefix constraints into the
// pattern automaton (the emitted string of an s-projector *is* the matched
// substring, so a constraint over outputs is a constraint over the
// pattern's input).
func (c Constraint) DFA(ab *automata.Alphabet) *automata.DFA {
	tr := c.Tracker()
	// States: 0..|p|-1 matching, |p| boundary, |p|+1 past, |p|+2 dead.
	dead := len(c.Prefix) + 2
	d := automata.NewDFA(ab, dead+1, tr.Start())
	for st := 0; st <= len(c.Prefix)+1; st++ {
		d.SetAccepting(st, tr.Accepting(st))
		for _, s := range ab.Symbols() {
			if st2, ok := tr.Step(st, s); ok {
				d.SetTransition(st, s, st2)
			} else {
				d.SetTransition(st, s, dead)
			}
		}
	}
	for _, s := range ab.Symbols() {
		d.SetTransition(dead, s, dead)
	}
	return d
}

// Constrain composes the transducer with the constraint tracker, returning
// a transducer whose answers are exactly the answers of t that satisfy c.
// States of the result are reachable pairs (q, tracker-state); emissions
// are preserved, so Viterbi on the result still reconstructs outputs. The
// construction is the paper's "a prefix constraint can be enforced by
// efficiently transforming the input transducer into a new one".
func (t *Transducer) Constrain(c Constraint) *Transducer {
	tr := c.Tracker()
	type pair struct{ q, t int }
	index := map[pair]int{}
	var pairs []pair
	intern := func(p pair) int {
		if id, ok := index[p]; ok {
			return id
		}
		index[p] = len(pairs)
		pairs = append(pairs, p)
		return len(pairs) - 1
	}
	start := intern(pair{t.N.Start, tr.Start()})
	type edgeRec struct {
		from int
		s    automata.Symbol
		to   int
		out  []automata.Symbol
	}
	var edges []edgeRec
	for work := 0; work < len(pairs); work++ {
		p := pairs[work]
		for _, s := range t.In.Symbols() {
			for _, q2 := range t.N.Succ(p.q, s) {
				out := t.Emit(p.q, s, q2)
				t2, ok := tr.StepString(p.t, out)
				if !ok {
					continue
				}
				to := intern(pair{q2, t2})
				edges = append(edges, edgeRec{work, s, to, out})
			}
		}
	}
	res := New(t.In, t.Out, len(pairs), start)
	for id, p := range pairs {
		res.SetAccepting(id, t.N.Accepting[p.q] && tr.Accepting(p.t))
	}
	for _, e := range edges {
		res.AddTransition(e.from, e.s, e.to, e.out)
	}
	return res
}

// Children partitions the answers admitted by c, minus the single answer o
// (which must be admitted by c), into disjoint child constraints, following
// the Lawler-style partition of Section 4. The union of the children's
// answer sets is exactly (answers of c) \ {o}.
//
// The 2|o|+1 children share one copy of o: each child's prefix is a
// length-capped slice of it, so a call allocates O(|o|) symbols rather
// than O(|o|²). Constraints are read-only, so the sharing is never
// observable (and an append to a capped prefix copies).
func (c Constraint) Children(o []automata.Symbol) []Constraint {
	if !c.Admits(o) {
		panic("transducer: Children called with an answer the constraint does not admit")
	}
	if c.Mode == ExactOnly {
		return nil // a singleton set minus its element is empty
	}
	p := len(c.Prefix)
	shared := automata.CloneString(o)
	prefix := func(l int) []automata.Symbol { return shared[:l:l] }
	kids := make([]Constraint, 0, 2*(len(o)-p)+1)
	// Exact proper prefixes of o that extend c.Prefix: o[:ℓ] for p ≤ ℓ < |o|.
	// The boundary case ℓ = p is the string c.Prefix itself, admitted only
	// in PrefixAndExtensions mode (and only when o ≠ prefix).
	for l := p; l < len(o); l++ {
		if l == p && c.Mode == ExtensionsOnly {
			continue // c.Prefix itself is not in the set
		}
		kids = append(kids, Constraint{Prefix: prefix(l), Mode: ExactOnly})
	}
	// Deviations: prefix o[:ℓ], next symbol different from o[ℓ] (and, at
	// ℓ = p, also different from everything already forbidden by c).
	for l := p; l < len(o); l++ {
		forb := map[automata.Symbol]bool{o[l]: true}
		if l == p {
			for s := range c.Forbidden {
				forb[s] = true
			}
		}
		kids = append(kids, Constraint{
			Prefix:    prefix(l),
			Forbidden: forb,
			Mode:      ExtensionsOnly,
		})
	}
	// Strict extensions of o. When o is exactly c.Prefix, extensions of o
	// are still subject to c's forbidden set at the boundary position.
	ext := Constraint{Prefix: prefix(len(o)), Mode: ExtensionsOnly}
	if len(o) == p && len(c.Forbidden) > 0 {
		ext.Forbidden = make(map[automata.Symbol]bool, len(c.Forbidden))
		for s := range c.Forbidden {
			ext.Forbidden[s] = true
		}
	}
	kids = append(kids, ext)
	return kids
}
