package kernel

import (
	"markovseq/internal/automata"
	"markovseq/internal/transducer"
)

// DetTables is the flat lookup-table form of a deterministic transducer:
// the successor state and emission of (q, y) are resolved into dense
// arrays indexed by q·|Σ|+y, so the DP inner loops perform two array
// reads instead of a slice walk plus a map lookup. Immutable after
// construction and safe for concurrent use.
type DetTables struct {
	// States is |Q|, Syms the input-alphabet size |Σ|.
	States, Syms int
	// Start is the initial state.
	Start int32
	// Next[q·Syms+y] is δ(q, y), or -1 when the transition is absent.
	Next []int32
	// The emission ω(q, y, Next[i]) of table index i = q·Syms+y is
	// Emit[EmitPtr[i]:EmitPtr[i+1]].
	EmitPtr []int32
	Emit    []automata.Symbol
	// Accept[q] reports q ∈ F.
	Accept []bool
}

// NewDetTables flattens a deterministic transducer. It panics if the
// transducer is nondeterministic.
func NewDetTables(t *transducer.Transducer) *DetTables {
	if !t.IsDeterministic() {
		panic("kernel: NewDetTables requires a deterministic transducer")
	}
	states, syms := t.NumStates(), t.In.Size()
	dt := &DetTables{
		States:  states,
		Syms:    syms,
		Start:   int32(t.Start()),
		Next:    make([]int32, states*syms),
		EmitPtr: make([]int32, states*syms+1),
		Accept:  make([]bool, states),
	}
	for q := 0; q < states; q++ {
		dt.Accept[q] = t.Accepting(q)
		for y := 0; y < syms; y++ {
			i := q*syms + y
			succ := t.Succ(q, automata.Symbol(y))
			if len(succ) == 0 {
				dt.Next[i] = -1
			} else {
				dt.Next[i] = int32(succ[0])
				dt.Emit = append(dt.Emit, t.Emit(q, automata.Symbol(y), succ[0])...)
			}
			dt.EmitPtr[i+1] = int32(len(dt.Emit))
		}
	}
	return dt
}

// NFATables is the flat lookup-table form of a possibly nondeterministic
// transducer: the successor list of (q, y) is Succ[Off[q·Syms+y]:
// Off[q·Syms+y+1]], and the emission of the transition at Succ index e
// is Emit[EmitPtr[e]:EmitPtr[e+1]]. Immutable after construction and
// safe for concurrent use.
type NFATables struct {
	States, Syms int
	Start        int32
	// Off[q·Syms+y] .. Off[q·Syms+y+1] delimits δ(q, y) inside Succ.
	Off  []int32
	Succ []int32
	// EmitPtr is parallel to Succ (length len(Succ)+1): transition e
	// emits Emit[EmitPtr[e]:EmitPtr[e+1]].
	EmitPtr []int32
	Emit    []automata.Symbol
	// EmitSym, parallel to Succ, codes transition e's emission for the
	// exact-prefix DP: the symbol it emits when it emits exactly one, -1
	// when it emits none, -2 when it emits more.
	EmitSym []int32
	Accept  []bool
	// MaxEmit is the length of the longest single-transition emission;
	// the constraint-incremental kernels use it to bound how far one
	// transition can advance the matched-prefix count.
	MaxEmit int
}

// Edges resolves δ(q, y) to its edge range [lo, hi) in Succ/EmitPtr.
func (nt *NFATables) Edges(q, y int) (int32, int32) {
	ti := q*nt.Syms + y
	return nt.Off[ti], nt.Off[ti+1]
}

// NewNFATables flattens any epsilon-free transducer.
func NewNFATables(t *transducer.Transducer) *NFATables {
	states, syms := t.NumStates(), t.In.Size()
	nt := &NFATables{
		States:  states,
		Syms:    syms,
		Start:   int32(t.Start()),
		Off:     make([]int32, states*syms+1),
		EmitPtr: []int32{0},
		Accept:  make([]bool, states),
	}
	for q := 0; q < states; q++ {
		nt.Accept[q] = t.Accepting(q)
		for y := 0; y < syms; y++ {
			for _, q2 := range t.Succ(q, automata.Symbol(y)) {
				nt.Succ = append(nt.Succ, int32(q2))
				w := t.Emit(q, automata.Symbol(y), q2)
				if len(w) > nt.MaxEmit {
					nt.MaxEmit = len(w)
				}
				code := int32(-2)
				switch len(w) {
				case 0:
					code = -1
				case 1:
					code = int32(w[0])
				}
				nt.EmitSym = append(nt.EmitSym, code)
				nt.Emit = append(nt.Emit, w...)
				nt.EmitPtr = append(nt.EmitPtr, int32(len(nt.Emit)))
			}
			nt.Off[q*syms+y+1] = int32(len(nt.Succ))
		}
	}
	return nt
}

// EmitRun concatenates the emissions along the accepting run that reads
// nodes and visits states (states[i] is the state after reading
// nodes[i]); it is the output-reconstruction step of the Viterbi path.
func (nt *NFATables) EmitRun(nodes []automata.Symbol, states []int) []automata.Symbol {
	var out []automata.Symbol
	q := int(nt.Start)
	for i, y := range nodes {
		lo, hi := nt.Edges(q, int(y))
		for e := lo; e < hi; e++ {
			if int(nt.Succ[e]) == states[i] {
				out = append(out, nt.Emit[nt.EmitPtr[e]:nt.EmitPtr[e+1]]...)
				break
			}
		}
		q = states[i]
	}
	return out
}
