// Package codec serializes Markov sequences, transducers and s-projectors
// to and from JSON, for the command-line tools and for interchange. The
// formats are deliberately plain: symbol names rather than interned ids,
// sparse maps rather than dense matrices.
package codec

import (
	"encoding/json"
	"fmt"
	"io"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/regex"
	"markovseq/internal/sproj"
	"markovseq/internal/transducer"
)

// SequenceJSON is the wire format of a Markov sequence.
type SequenceJSON struct {
	Nodes   []string                        `json:"nodes"`
	Initial map[string]float64              `json:"initial"`
	Trans   []map[string]map[string]float64 `json:"transitions"`
}

// EncodeSequence writes m as JSON.
func EncodeSequence(w io.Writer, m *markov.Sequence) error {
	out := SequenceJSON{Initial: map[string]float64{}}
	for _, s := range m.Nodes.Symbols() {
		out.Nodes = append(out.Nodes, m.Nodes.Name(s))
		if p := m.Initial[s]; p > 0 {
			out.Initial[m.Nodes.Name(s)] = p
		}
	}
	for _, mat := range m.Trans {
		step := map[string]map[string]float64{}
		for x, row := range mat {
			var cells map[string]float64
			for y, p := range row {
				if p > 0 {
					if cells == nil {
						cells = map[string]float64{}
					}
					cells[m.Nodes.Name(automata.Symbol(y))] = p
				}
			}
			if cells != nil {
				step[m.Nodes.Name(automata.Symbol(x))] = cells
			}
		}
		out.Trans = append(out.Trans, step)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DecodeSequence reads a JSON Markov sequence and validates it.
func DecodeSequence(r io.Reader) (*markov.Sequence, error) {
	var in SequenceJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	nodes, err := automata.NewAlphabet(in.Nodes...)
	if err != nil {
		return nil, err
	}
	m := markov.New(nodes, len(in.Trans)+1)
	for name, p := range in.Initial {
		s, ok := nodes.Symbol(name)
		if !ok {
			return nil, fmt.Errorf("codec: initial distribution mentions unknown node %q", name)
		}
		m.Initial[s] = p
	}
	for i, step := range in.Trans {
		for from, cells := range step {
			x, ok := nodes.Symbol(from)
			if !ok {
				return nil, fmt.Errorf("codec: transition %d mentions unknown node %q", i+1, from)
			}
			for to, p := range cells {
				y, ok := nodes.Symbol(to)
				if !ok {
					return nil, fmt.Errorf("codec: transition %d mentions unknown node %q", i+1, to)
				}
				m.Trans[i][x][y] = p
			}
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// TransitionJSON is one transducer transition on the wire.
type TransitionJSON struct {
	From   int      `json:"from"`
	Symbol string   `json:"symbol"`
	To     int      `json:"to"`
	Emit   []string `json:"emit,omitempty"`
}

// TransducerJSON is the wire format of a transducer.
type TransducerJSON struct {
	Input       []string         `json:"input"`
	Output      []string         `json:"output"`
	States      int              `json:"states"`
	Start       int              `json:"start"`
	Accepting   []int            `json:"accepting"`
	Transitions []TransitionJSON `json:"transitions"`
}

// EncodeTransducer writes t as JSON.
func EncodeTransducer(w io.Writer, t *transducer.Transducer) error {
	out := TransducerJSON{States: t.NumStates(), Start: t.Start()}
	for _, s := range t.In.Symbols() {
		out.Input = append(out.Input, t.In.Name(s))
	}
	for _, s := range t.Out.Symbols() {
		out.Output = append(out.Output, t.Out.Name(s))
	}
	for q := 0; q < t.NumStates(); q++ {
		if t.Accepting(q) {
			out.Accepting = append(out.Accepting, q)
		}
		for _, s := range t.In.Symbols() {
			for _, q2 := range t.Succ(q, s) {
				tr := TransitionJSON{From: q, Symbol: t.In.Name(s), To: q2}
				for _, e := range t.Emit(q, s, q2) {
					tr.Emit = append(tr.Emit, t.Out.Name(e))
				}
				out.Transitions = append(out.Transitions, tr)
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// maxStates bounds the state count DecodeTransducer accepts. The count
// sizes the transducer's per-state tables before any transition is read,
// so without a bound a few bytes of JSON could request gigabytes, or a
// length the allocator rejects with a panic.
const maxStates = 1 << 16

// DecodeTransducer reads a JSON transducer. It rejects a state count
// above 1<<16 before allocating anything.
func DecodeTransducer(r io.Reader) (*transducer.Transducer, error) {
	var in TransducerJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	inAb, err := automata.NewAlphabet(in.Input...)
	if err != nil {
		return nil, err
	}
	outAb, err := automata.NewAlphabet(in.Output...)
	if err != nil {
		return nil, err
	}
	if in.States > maxStates {
		return nil, fmt.Errorf("codec: %d states exceeds the limit of %d", in.States, maxStates)
	}
	if in.States < 1 || in.Start < 0 || in.Start >= in.States {
		return nil, fmt.Errorf("codec: bad states/start (%d/%d)", in.States, in.Start)
	}
	t := transducer.New(inAb, outAb, in.States, in.Start)
	for _, q := range in.Accepting {
		if q < 0 || q >= in.States {
			return nil, fmt.Errorf("codec: accepting state %d out of range", q)
		}
		t.SetAccepting(q, true)
	}
	for _, tr := range in.Transitions {
		s, ok := inAb.Symbol(tr.Symbol)
		if !ok {
			return nil, fmt.Errorf("codec: transition on unknown symbol %q", tr.Symbol)
		}
		if tr.From < 0 || tr.From >= in.States || tr.To < 0 || tr.To >= in.States {
			return nil, fmt.Errorf("codec: transition %d→%d out of range", tr.From, tr.To)
		}
		var emit []automata.Symbol
		for _, e := range tr.Emit {
			sym, ok := outAb.Symbol(e)
			if !ok {
				return nil, fmt.Errorf("codec: emission of unknown symbol %q", e)
			}
			emit = append(emit, sym)
		}
		t.AddTransition(tr.From, s, tr.To, emit)
	}
	return t, nil
}

// SProjectorJSON is the wire format of an s-projector: three regular
// expressions over a shared alphabet (see internal/regex for the syntax).
type SProjectorJSON struct {
	Alphabet []string `json:"alphabet"`
	Prefix   string   `json:"prefix"`
	Pattern  string   `json:"pattern"`
	Suffix   string   `json:"suffix"`
}

// EncodeSProjectorSpec writes the spec as JSON (specs are authored, not
// round-tripped from compiled DFAs).
func EncodeSProjectorSpec(w io.Writer, spec SProjectorJSON) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// DecodeSProjector reads a JSON s-projector spec and compiles it.
func DecodeSProjector(r io.Reader) (*sproj.SProjector, *automata.Alphabet, error) {
	var in SProjectorJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("codec: %w", err)
	}
	ab, err := automata.NewAlphabet(in.Alphabet...)
	if err != nil {
		return nil, nil, err
	}
	b, err := regex.CompileDFA(in.Prefix, ab)
	if err != nil {
		return nil, nil, fmt.Errorf("codec: prefix: %w", err)
	}
	a, err := regex.CompileDFA(in.Pattern, ab)
	if err != nil {
		return nil, nil, fmt.Errorf("codec: pattern: %w", err)
	}
	e, err := regex.CompileDFA(in.Suffix, ab)
	if err != nil {
		return nil, nil, fmt.Errorf("codec: suffix: %w", err)
	}
	p, err := sproj.New(b, a, e)
	if err != nil {
		return nil, nil, err
	}
	return p, ab, nil
}
