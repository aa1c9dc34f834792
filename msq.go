// Package msq is a Go library for querying Markov sequences with
// finite-state transducers, reproducing Kimelfeld & Ré, "Transducing
// Markov Sequences" (PODS 2010).
//
// A Markov sequence μ[n] is a chain of n random variables over a finite
// node set Σ — the standard output of smoothing a hidden Markov model
// over an observation sequence (RFID readings, speech frames, OCR
// characters). A query is a finite-state transducer with deterministic
// emission; its answers are output strings, each weighted by its
// confidence, the probability that a random possible world of μ is
// transduced into it.
//
// The library implements the paper's full algorithmic map (Table 2):
//
//   - unranked answer enumeration with polynomial delay and space
//     (Theorem 4.1) — EnumerateUnranked;
//   - ranked enumeration by E_max, the best-evidence score, with
//     polynomial delay (Theorem 4.3) — EnumerateEmax, TopK;
//   - confidence computation: polynomial for deterministic transducers
//     (Theorem 4.6), exponential only in |Q| for uniform-emission
//     nondeterministic ones (Theorem 4.8) — Confidence;
//   - substring projectors [B]A[E] (Section 5): confidence exponential
//     only in |Q_E| (Theorem 5.5), n-approximate ranked enumeration by
//     I_max (Theorem 5.2);
//   - indexed substring projectors [B]↓A[E]: polynomial confidence
//     (Theorem 5.8) and exact decreasing-confidence enumeration with
//     polynomial delay (Theorem 5.7).
//
// Quickstart: see examples/quickstart, which reproduces the paper's
// running example (a hospital crash cart tracked by RFID).
package msq

import (
	"fmt"
	"math/rand"
	"time"

	"markovseq/internal/automata"
	"markovseq/internal/conf"
	"markovseq/internal/enum"
	"markovseq/internal/exact"
	"markovseq/internal/hmm"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/ranked"
	"markovseq/internal/regex"
	"markovseq/internal/sproj"
	"markovseq/internal/transducer"
)

// Core model types, re-exported from the implementation packages.
type (
	// Symbol is an interned alphabet symbol.
	Symbol = automata.Symbol
	// Alphabet is a finite ordered set of named symbols.
	Alphabet = automata.Alphabet
	// NFA is a nondeterministic finite automaton.
	NFA = automata.NFA
	// DFA is a deterministic finite automaton with a total transition
	// function.
	DFA = automata.DFA
	// Sequence is a Markov sequence μ[n] (Section 3.1).
	Sequence = markov.Sequence
	// ExactSequence is a Markov sequence with big.Rat probabilities.
	ExactSequence = exact.Sequence
	// Transducer is a finite-state transducer with deterministic emission
	// (Section 3.1.1).
	Transducer = transducer.Transducer
	// Constraint is a prefix constraint over transducer outputs, the
	// partitioning tool of Theorems 4.1 and 4.3.
	Constraint = transducer.Constraint
	// SProjector is a substring projector [B]A[E] (Section 5).
	SProjector = sproj.SProjector
	// IndexedAnswer is an indexed s-projector answer (o, i) with its
	// confidence.
	IndexedAnswer = sproj.IndexedAnswer
	// StringAnswer is an s-projector answer scored by I_max.
	StringAnswer = sproj.StringAnswer
	// HMM is a hidden Markov model; Condition translates it (plus
	// observations) into a Sequence.
	HMM = hmm.Model
	// DB is a Lahar-style store of named streams and queries.
	DB = lahar.DB
	// DBOption configures a DB (worker-pool size, window parallelism).
	DBOption = lahar.Option
	// Result is a DB query result.
	Result = lahar.Result
	// StreamResult is one stream's contribution to TopKAcross.
	StreamResult = lahar.StreamResult
	// WindowResult is one SlidingTopK window's result.
	WindowResult = lahar.WindowResult
	// DBCacheStats reports the DB's prepared-engine cache counters.
	DBCacheStats = lahar.CacheStats
	// Event is one appended stream position: the row-stochastic |Σ|×|Σ|
	// transition matrix into the new position (DB.AppendEvents).
	Event = lahar.Event
	// WindowDelta is one per-window top-k result emitted by a sliding
	// subscription (DB.WatchSlidingTopK).
	WindowDelta = lahar.WindowDelta
	// Subscription is a live sliding-top-k watch on one stream; read
	// deltas from C, Close when done.
	Subscription = lahar.Subscription
	// IngestOption configures DB.NewIngester.
	IngestOption = lahar.IngestOption
	// UnrankedEnumerator enumerates answers with polynomial delay and
	// space in no particular order (Theorem 4.1).
	UnrankedEnumerator = enum.Enumerator
	// EmaxEnumerator enumerates answers in decreasing E_max (Theorem 4.3).
	EmaxEnumerator = ranked.Enumerator
	// EmaxAnswer is an answer with its log E_max score.
	EmaxAnswer = ranked.Answer
	// IndexedEnumerator enumerates indexed s-projector answers in exactly
	// decreasing confidence (Theorem 5.7).
	IndexedEnumerator = sproj.IndexedEnumerator
	// ImaxEnumerator enumerates s-projector answers in decreasing I_max
	// (Theorem 5.2 / Lemma 5.10).
	ImaxEnumerator = sproj.ImaxEnumerator
	// EvidenceEnumerator yields the worlds transduced into a fixed answer
	// in non-increasing probability.
	EvidenceEnumerator = ranked.EvidenceEnumerator
)

// Constraint modes.
const (
	// PrefixAndExtensions admits the constraint prefix and its extensions.
	PrefixAndExtensions = transducer.PrefixAndExtensions
	// ExtensionsOnly admits strict extensions of the prefix.
	ExtensionsOnly = transducer.ExtensionsOnly
	// ExactOnly admits exactly the prefix.
	ExactOnly = transducer.ExactOnly
)

// NewAlphabet returns an alphabet with the given symbol names.
func NewAlphabet(names ...string) (*Alphabet, error) { return automata.NewAlphabet(names...) }

// MustAlphabet is NewAlphabet panicking on duplicates.
func MustAlphabet(names ...string) *Alphabet { return automata.MustAlphabet(names...) }

// Chars returns an alphabet with one symbol per rune of s.
func Chars(s string) *Alphabet { return automata.Chars(s) }

// NewSequence returns a zeroed Markov sequence of length n over nodes;
// fill Initial/Trans via SetInitial and SetTrans, then Validate.
func NewSequence(nodes *Alphabet, n int) *Sequence { return markov.New(nodes, n) }

// UniformSequence returns the Markov sequence in which every string of
// Σⁿ is equally likely.
func UniformSequence(nodes *Alphabet, n int) *Sequence { return markov.Uniform(nodes, n) }

// HomogeneousSequence builds a stationary chain of length n.
func HomogeneousSequence(nodes *Alphabet, n int, initial []float64, trans [][]float64) *Sequence {
	return markov.Homogeneous(nodes, n, initial, trans)
}

// RandomSequence generates a random valid Markov sequence (a benchmark
// workload).
func RandomSequence(nodes *Alphabet, n int, density float64, rng *rand.Rand) *Sequence {
	return markov.Random(nodes, n, density, rng)
}

// ConcatSequences concatenates two Markov sequences (independent halves).
func ConcatSequences(a, b *Sequence) *Sequence { return markov.Concat(a, b) }

// ExactFromFloat converts a Sequence to exact rational arithmetic.
func ExactFromFloat(m *Sequence) *ExactSequence { return exact.FromFloat(m) }

// NewTransducer returns an empty transducer with n states over the given
// input and output alphabets, starting at state start.
func NewTransducer(in, out *Alphabet, n, start int) *Transducer {
	return transducer.New(in, out, n, start)
}

// NewHMM returns a zeroed hidden Markov model.
func NewHMM(states, obs *Alphabet) *HMM { return hmm.New(states, obs) }

// NewDB returns an empty Lahar-style database. Options tune the serving
// layer; the zero-argument call keeps its historical behavior.
func NewDB(opts ...DBOption) *DB { return lahar.New(opts...) }

// WithDBWorkers bounds the DB's evaluation worker pool (TopKAcross and
// parallel SlidingTopK). The default is runtime.GOMAXPROCS(0).
func WithDBWorkers(n int) DBOption { return lahar.WithWorkers(n) }

// WithParallelWindows makes SlidingTopK fan windows out over the DB's
// worker pool. Results are identical to the serial evaluation.
func WithParallelWindows(on bool) DBOption { return lahar.WithParallelWindows(on) }

// WithDBMaxInFlight bounds the number of concurrently executing DB
// query calls; excess calls fail immediately with ErrDBOverloaded
// instead of queueing. Values < 1 disable the limit.
func WithDBMaxInFlight(n int) DBOption { return lahar.WithMaxInFlight(n) }

// WithDBQueryDeadline applies a per-query timeout to every DB query
// call (on top of any caller-supplied context deadline). A deadlined
// ranked query returns the answer prefix proven so far together with
// context.DeadlineExceeded. Values ≤ 0 disable the store deadline.
func WithDBQueryDeadline(d time.Duration) DBOption { return lahar.WithQueryDeadline(d) }

// ErrDBOverloaded is returned by DB query calls shed under
// WithDBMaxInFlight. Check with errors.Is.
var ErrDBOverloaded = lahar.ErrOverloaded

// WithIngestFixedLag switches an Ingester from exact re-smoothing (which
// replaces the stream per observation) to fixed-lag smoothing feeding
// DB.AppendEvents: each observation costs O(lag·|S|²) independent of
// stream length, and cached engines, window state, and subscriptions
// survive every append. The committed rows approximate exact smoothing;
// with lag ≥ n-1 plus a final Flush they coincide with it.
func WithIngestFixedLag(lag int) IngestOption { return lahar.WithFixedLag(lag) }

// CompileRegex compiles a regular expression over the alphabet into an
// NFA (see package regex for the syntax).
func CompileRegex(pattern string, a *Alphabet) (*NFA, error) { return regex.Compile(pattern, a) }

// CompileRegexDFA compiles a regular expression into a minimal DFA.
func CompileRegexDFA(pattern string, a *Alphabet) (*DFA, error) {
	return regex.CompileDFA(pattern, a)
}

// NewSProjector returns the s-projector [B]A[E].
func NewSProjector(b, a, e *DFA) (*SProjector, error) { return sproj.New(b, a, e) }

// SimpleSProjector returns [*]A[*] (universal prefix and suffix
// constraints).
func SimpleSProjector(a *DFA) *SProjector { return sproj.Simple(a) }

// Confidence computes Pr(S →[A^ω]→ o), dispatching on the transducer
// class per Table 2 of the paper: Theorem 4.6's dynamic program for
// deterministic transducers, Theorem 4.8's subset dynamic program for
// nondeterministic transducers with uniform emission. For
// nondeterministic, non-uniform transducers the problem is
// FP^#P-complete (Theorem 4.9) and an error is returned; use
// ConfidenceBruteForce explicitly if the instance is small.
func Confidence(t *Transducer, m *Sequence, o []Symbol) (float64, error) {
	if t.IsDeterministic() {
		return conf.Det(t, m, o), nil
	}
	if _, ok := t.UniformK(); ok {
		return conf.Uniform(t, m, o), nil
	}
	return 0, fmt.Errorf("msq: confidence for a nondeterministic non-uniform transducer is FP^#P-complete (Theorem 4.9); use ConfidenceBruteForce for small instances")
}

// ConfidenceBruteForce computes the confidence by possible-worlds
// enumeration — exponential in the sequence length, for validation and
// small instances only.
func ConfidenceBruteForce(t *Transducer, m *Sequence, o []Symbol) float64 {
	return conf.BruteForce(t, m, o)
}

// ConfidenceExact computes the confidence of an answer of a deterministic
// transducer in exact rational arithmetic.
func ConfidenceExact(t *Transducer, m *ExactSequence, o []Symbol) *RatConfidence {
	return &RatConfidence{Rat: exact.DetConfidence(t, m, o)}
}

// IsAnswer reports whether o has nonzero probability of being transduced
// into (decidable efficiently, Section 3.2).
func IsAnswer(t *Transducer, m *Sequence, o []Symbol) bool { return enum.IsAnswer(t, m, o) }

// EnumerateUnranked prepares the polynomial-delay, polynomial-space
// enumeration of all answers (Theorem 4.1).
func EnumerateUnranked(t *Transducer, m *Sequence) *UnrankedEnumerator {
	return enum.NewEnumerator(t, m)
}

// EnumerateEmax prepares the polynomial-delay enumeration of answers in
// decreasing E_max (Theorem 4.3).
func EnumerateEmax(t *Transducer, m *Sequence) *EmaxEnumerator {
	return ranked.NewEnumerator(t, m)
}

// Emax computes E_max(o) in log space (-Inf for non-answers).
func Emax(t *Transducer, m *Sequence, o []Symbol) float64 { return ranked.Emax(t, m, o) }

// BestEvidence returns a maximum-probability possible world transduced
// into o, with its log probability.
func BestEvidence(t *Transducer, m *Sequence, o []Symbol) (s []Symbol, logp float64, ok bool) {
	return ranked.BestEvidence(t, m, o)
}

// TopK returns the k highest-E_max answers with their E_max scores in
// log space, in decreasing order.
func TopK(t *Transducer, m *Sequence, k int) []EmaxAnswer {
	e := ranked.NewEnumerator(t, m)
	var out []EmaxAnswer
	for len(out) < k {
		a, ok := e.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// Evidences prepares the enumeration of the possible worlds transduced
// into answer o, in non-increasing probability (the k-best generalization
// of BestEvidence, via DAG path enumeration).
func Evidences(t *Transducer, m *Sequence, o []Symbol) (*EvidenceEnumerator, error) {
	return ranked.Evidences(t, m, o)
}
