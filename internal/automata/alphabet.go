// Package automata provides the finite-automata toolkit underlying the
// Markov-sequence query engine: symbol alphabets, NFAs (with optional
// epsilon moves), DFAs, and the classical constructions (determinization,
// product, concatenation, complement, minimization, reversal).
//
// The package follows the formal setting of Kimelfeld & Ré, "Transducing
// Markov Sequences" (PODS 2010), Section 2.1: automata read strings of
// symbols drawn from a finite alphabet, and the same alphabet type serves
// both as the state-node set of a Markov sequence and as the input
// alphabet of a transducer.
package automata

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Symbol is an interned alphabet symbol. Symbols are small non-negative
// integers indexing into their Alphabet's name table; the zero value is the
// first symbol added to the alphabet.
type Symbol int

// Alphabet is a finite, ordered set of named symbols. An Alphabet interns
// symbol names so that strings over the alphabet can be represented as
// compact []Symbol slices. Alphabets are immutable after construction
// except through Add, and safe for concurrent read access.
type Alphabet struct {
	names []string
	index map[string]Symbol
}

// NewAlphabet returns an alphabet containing the given symbol names in
// order. Duplicate names are an error because they would make the
// name→symbol mapping ambiguous.
func NewAlphabet(names ...string) (*Alphabet, error) {
	a := &Alphabet{index: make(map[string]Symbol, len(names))}
	for _, n := range names {
		if _, dup := a.index[n]; dup {
			return nil, fmt.Errorf("automata: duplicate symbol %q", n)
		}
		a.index[n] = Symbol(len(a.names))
		a.names = append(a.names, n)
	}
	return a, nil
}

// MustAlphabet is like NewAlphabet but panics on duplicates. It is intended
// for alphabets written as literals in code and tests.
func MustAlphabet(names ...string) *Alphabet {
	a, err := NewAlphabet(names...)
	if err != nil {
		panic(err)
	}
	return a
}

// Chars returns an alphabet with one single-character symbol per rune of s,
// in order. It is a convenience for text-processing examples where the
// alphabet is a character set.
func Chars(s string) *Alphabet {
	names := make([]string, 0, len(s))
	for _, r := range s {
		names = append(names, string(r))
	}
	return MustAlphabet(names...)
}

// Size returns the number of symbols in the alphabet.
func (a *Alphabet) Size() int { return len(a.names) }

// Symbols returns all symbols of the alphabet in order.
func (a *Alphabet) Symbols() []Symbol {
	out := make([]Symbol, len(a.names))
	for i := range out {
		out[i] = Symbol(i)
	}
	return out
}

// Add interns a new symbol name and returns its Symbol. If the name is
// already present, the existing Symbol is returned.
func (a *Alphabet) Add(name string) Symbol {
	if s, ok := a.index[name]; ok {
		return s
	}
	if a.index == nil {
		a.index = make(map[string]Symbol)
	}
	s := Symbol(len(a.names))
	a.index[name] = s
	a.names = append(a.names, name)
	return s
}

// Symbol looks up a symbol by name.
func (a *Alphabet) Symbol(name string) (Symbol, bool) {
	s, ok := a.index[name]
	return s, ok
}

// MustSymbol looks up a symbol by name and panics if it is absent.
func (a *Alphabet) MustSymbol(name string) Symbol {
	s, ok := a.index[name]
	if !ok {
		panic(fmt.Sprintf("automata: unknown symbol %q", name))
	}
	return s
}

// Name returns the name of s. It panics if s is not a symbol of a.
func (a *Alphabet) Name(s Symbol) string {
	if s < 0 || int(s) >= len(a.names) {
		panic(fmt.Sprintf("automata: symbol %d out of range [0,%d)", s, len(a.names)))
	}
	return a.names[int(s)]
}

// Contains reports whether s is a symbol of a.
func (a *Alphabet) Contains(s Symbol) bool { return s >= 0 && int(s) < len(a.names) }

// String lists the alphabet's symbol names, for diagnostics.
func (a *Alphabet) String() string {
	return "{" + strings.Join(a.names, ", ") + "}"
}

// ParseString parses a whitespace-separated list of symbol names into a
// symbol string. The empty (or all-blank) input parses to the empty string.
func (a *Alphabet) ParseString(s string) ([]Symbol, error) {
	fields := strings.Fields(s)
	out := make([]Symbol, 0, len(fields))
	for _, f := range fields {
		sym, ok := a.index[f]
		if !ok {
			return nil, fmt.Errorf("automata: unknown symbol %q", f)
		}
		out = append(out, sym)
	}
	return out, nil
}

// MustParseString is ParseString panicking on error, for tests and literals.
func (a *Alphabet) MustParseString(s string) []Symbol {
	out, err := a.ParseString(s)
	if err != nil {
		panic(err)
	}
	return out
}

// FormatString renders a symbol string using the alphabet's names. Symbol
// names of length one are concatenated directly (so character alphabets
// print naturally); longer names are joined with spaces.
func (a *Alphabet) FormatString(str []Symbol) string {
	if len(str) == 0 {
		return "ε"
	}
	allSingle := true
	for _, s := range str {
		if len(a.Name(s)) != 1 {
			allSingle = false
			break
		}
	}
	var b strings.Builder
	for i, s := range str {
		if i > 0 && !allSingle {
			b.WriteByte(' ')
		}
		b.WriteString(a.Name(s))
	}
	return b.String()
}

// EqualStrings reports whether two symbol strings are identical.
func EqualStrings(a, b []Symbol) bool {
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

// HasPrefix reports whether s begins with prefix.
func HasPrefix(s, prefix []Symbol) bool {
	if len(s) < len(prefix) {
		return false
	}
	return EqualStrings(s[:len(prefix)], prefix)
}

// CommonPrefix returns the length of the longest common prefix of a
// and b.
func CommonPrefix(a, b []Symbol) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// CompareStrings orders symbol strings first by length and then
// lexicographically; it is the canonical deterministic order used when an
// enumeration's output order is unspecified.
func CompareStrings(a, b []Symbol) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// CloneString returns a copy of s. Enumeration algorithms hand out strings
// that they keep mutating internally; cloning keeps the public results
// immutable from the caller's perspective.
func CloneString(s []Symbol) []Symbol {
	if s == nil {
		return nil
	}
	out := make([]Symbol, len(s))
	copy(out, s)
	return out
}

// StringKey packs a symbol string into a map key: a fixed-width
// little-endian byte encoding, injective and branch-free per symbol.
// Keys are opaque; only ParseKey reads them back.
func StringKey(s []Symbol) string {
	if len(s) == 0 {
		return ""
	}
	dst := make([]byte, 0, 4*len(s))
	for _, x := range s {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return string(dst)
}

// ParseKey decodes a StringKey back into the symbol string it encodes.
// Brute-force test oracles accumulate probability mass in maps keyed by
// StringKey and then need the output back to query the code under test.
func ParseKey(key string) []Symbol {
	out := make([]Symbol, len(key)/4)
	for i := range out {
		out[i] = Symbol(binary.LittleEndian.Uint32([]byte(key[i*4 : i*4+4])))
	}
	return out
}

// SortStrings sorts a slice of symbol strings in the canonical order of
// CompareStrings.
func SortStrings(strs [][]Symbol) {
	sort.Slice(strs, func(i, j int) bool { return CompareStrings(strs[i], strs[j]) < 0 })
}
