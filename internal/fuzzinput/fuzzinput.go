// Package fuzzinput decodes fuzz inputs into small ranked-query
// instances: a Markov sequence and a transducer over it. The
// serving-path fuzzers of package lahar and the pruned-versus-exhaustive
// fuzzer of package ranked share it, so one corpus byte layout describes
// every instance they draw.
package fuzzinput

import (
	"math/rand"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// Bytes hands out a fuzz input one byte at a time, then zeros.
type Bytes []byte

// Next returns the next byte of the input, or 0 once it is used up.
func (b *Bytes) Next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// Instance decodes the instance that opens a fuzz input: a Markov
// sequence over 2 or 3 nodes with n ≤ 40 positions (so windows and
// prefixes fall on both sides of kernel.BoundsMinN) and some zero
// transitions, and a 1–3-state deterministic transducer emitting at
// most one of two output symbols per transition, with a random accepting
// set and missing transitions so that some inputs are answerless. Byte
// layout: |Σ|, n, density, two seed bytes, |Q|, accepting mask, |Q|·|Σ|
// transition bytes (low two bits: emit x, emit y, emit nothing, no
// transition; the rest: target state).
func Instance(in *Bytes) (*markov.Sequence, *transducer.Transducer) {
	sigma := 2 + in.Next()%2
	nodes := automata.MustAlphabet([]string{"a", "b", "c"}[:sigma]...)
	n := 1 + in.Next()%40
	density := float64(1+in.Next()%7) / 8
	seed := int64(in.Next()<<8 | in.Next())
	m := markov.Random(nodes, n, density, rand.New(rand.NewSource(seed)))

	states := 1 + in.Next()%3
	tr := transducer.New(nodes, automata.MustAlphabet("x", "y"), states, 0)
	accepting := in.Next()
	for q := 0; q < states; q++ {
		tr.SetAccepting(q, accepting>>q&1 == 1)
		for s := 0; s < sigma; s++ {
			e := in.Next()
			var out []automata.Symbol
			switch e % 4 {
			case 0, 1:
				out = []automata.Symbol{automata.Symbol(e % 4)}
			case 3:
				continue // no transition
			}
			tr.AddTransition(q, automata.Symbol(s), e/4%states, out)
		}
	}
	return m, tr
}
