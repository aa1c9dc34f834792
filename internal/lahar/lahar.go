// Package lahar is a small Markov-sequence database in the spirit of the
// Lahar system that motivates the paper (Section 1, Section 6): named
// Markov-sequence streams, registered transducer and s-projector queries,
// and the evaluation modes the paper develops — unranked enumeration,
// ranked enumeration by E_max, exact ranked evaluation for indexed
// s-projectors, I_max-ranked evaluation for plain s-projectors, and
// confidence computation with automatic algorithm selection.
//
// # Serving layer
//
// The store is safe for concurrent use and serves queries through a
// prepared-engine cache. Queries are compiled once at registration
// (Table-2 classification, plan selection, s-projector→transducer
// conversion), and the bound evaluation engine for each (stream, query)
// pair is built on first use and reused by every later call — including
// each engine's memoized ranked/unranked answer prefixes, so repeated
// TopK and Enumerate calls cost a prefix copy, not a re-enumeration.
// Streams and queries carry version stamps: PutStream,
// RegisterTransducer and RegisterSProjector bump the version of the
// entry they replace, and a cached engine is served only when its
// recorded stream and query versions both match the current entries —
// a stale engine is therefore never served. Registered sequences,
// transducers and s-projectors must not be mutated after hand-off.
//
// Cross-stream (TopKAcross) and windowed (SlidingTopK with the
// ParallelWindows option) evaluation fan out over a worker pool whose
// size defaults to runtime.GOMAXPROCS(0) and is configurable with
// WithWorkers.
//
// # Cancellation, deadlines, and load shedding
//
// Every query method has a context-aware form (TopKCtx, EnumerateCtx,
// ConfidenceCtx, SlidingTopKCtx, TopKAcrossCtx); the legacy methods
// delegate to them with context.Background(). Cancellation reaches
// step granularity: the DP kernels poll the context every few sequence
// positions, and the enumerators check it between answers, so a
// deadline aborts long passes promptly. A cancelled ranked query
// returns the already-proven answer prefix together with ctx.Err() —
// the prefix is exactly the first answers of the uncancelled run, never
// a reordering. WithQueryDeadline applies a per-query timeout at every
// public entry point, and WithMaxInFlight bounds the number of
// concurrently executing queries, shedding the excess immediately with
// ErrOverloaded instead of queueing it.
package lahar

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"markovseq/internal/automata"
	"markovseq/internal/core"
	"markovseq/internal/markov"
	"markovseq/internal/sproj"
	"markovseq/internal/transducer"
)

// ScoreKind identifies what a Result's Score means.
type ScoreKind int

const (
	// ScoreConfidence is an exact confidence Pr(S →[q]→ o).
	ScoreConfidence ScoreKind = iota
	// ScoreEmax is E_max(o), the probability of the best evidence.
	ScoreEmax
	// ScoreImax is I_max(o), the best single-occurrence confidence.
	ScoreImax
	// ScoreNone means the evaluation mode is unranked.
	ScoreNone
)

func (k ScoreKind) String() string {
	switch k {
	case ScoreConfidence:
		return "confidence"
	case ScoreEmax:
		return "E_max"
	case ScoreImax:
		return "I_max"
	default:
		return "unranked"
	}
}

// Result is one query answer.
type Result struct {
	// Output is the answer string over the query's output alphabet.
	Output []automata.Symbol
	// Index is the occurrence start index for indexed s-projector queries
	// (0 otherwise).
	Index int
	// Score is the ranking score; its meaning is Kind.
	Score float64
	Kind  ScoreKind
}

// streamEntry is a stored stream with its version stamp. Replacing a
// stream bumps the version, which invalidates every cached engine bound
// to the old sequence. Appending (AppendEvents) swaps m for an extended
// snapshot WITHOUT bumping the version: within one generation the
// sequence only ever grows, so (version, length) identifies a snapshot
// and cached engines rebind cheaply instead of invalidating.
type streamEntry struct {
	m       *markov.Sequence
	version uint64
	// appendMu serializes appenders and subscription registration for
	// this entry: m is written only under both appendMu and db.mu, so an
	// appender may read it under appendMu alone while queries read it
	// under db.mu.RLock.
	appendMu sync.Mutex
}

// queryEntry is a registered query: the compiled (prepared) form and a
// version stamp bumped on re-registration.
type queryEntry struct {
	prepared *core.Prepared
	version  uint64
}

// DB is the store: named streams and named queries, served through a
// version-checked prepared-engine cache (see the package comment).
type DB struct {
	mu      sync.RWMutex
	streams map[string]*streamEntry
	queries map[string]*queryEntry
	// clock stamps stream/query entries; monotonically increasing under
	// mu so no two generations of an entry share a version.
	clock uint64
	// engines caches the bound evaluation engine per (stream, query);
	// events caches Boolean event-query probabilities per stream. Both
	// record the versions they were built against.
	engines map[engineKey]*engineEntry
	events  map[string]*eventCacheEntry
	stats   cacheCounters
	// watchers holds the live WatchSlidingTopK subscriptions per stream;
	// appenders advance them, PutStream fails them (see watch.go).
	watchers map[string][]*Subscription

	workers         int
	parallelWindows bool

	// deadline is the per-query timeout applied at every public entry
	// point (0 = none); inflight is the load-shedding semaphore (nil =
	// unlimited). See WithQueryDeadline / WithMaxInFlight.
	deadline    time.Duration
	maxInFlight int
	inflight    chan struct{}

	// hook is the serving-path test seam (see SetServeHook); serve holds
	// the store-side query-outcome counters (see ServeStats).
	hook  atomic.Pointer[ServeHook]
	serve serveCounters
}

// Option configures a DB.
type Option func(*DB)

// WithWorkers sets the worker-pool size used by TopKAcross and parallel
// SlidingTopK. The default is runtime.GOMAXPROCS(0); n < 1 resets to the
// default.
func WithWorkers(n int) Option {
	return func(db *DB) {
		if n < 1 {
			n = runtime.GOMAXPROCS(0)
		}
		db.workers = n
	}
}

// WithParallelWindows makes SlidingTopK fan its windows out over the
// worker pool instead of evaluating them sequentially.
func WithParallelWindows(on bool) Option {
	return func(db *DB) { db.parallelWindows = on }
}

// New returns an empty database.
func New(opts ...Option) *DB {
	db := &DB{
		streams:  make(map[string]*streamEntry),
		queries:  make(map[string]*queryEntry),
		engines:  make(map[engineKey]*engineEntry),
		events:   make(map[string]*eventCacheEntry),
		watchers: make(map[string][]*Subscription),
		workers:  runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(db)
	}
	if db.maxInFlight > 0 {
		db.inflight = make(chan struct{}, db.maxInFlight)
	}
	return db
}

// PutStream stores (or replaces) a stream after validating it. Replacing
// a stream invalidates every cached engine and event probability bound
// to the previous sequence, fails its live WatchSlidingTopK
// subscriptions, and aborts any in-progress AppendEvents (extend a
// stream with AppendEvents instead of replacing it to keep all of that
// state resident).
func (db *DB) PutStream(name string, m *markov.Sequence) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("lahar: stream %q: %w", name, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.clock++
	db.streams[name] = &streamEntry{m: m, version: db.clock}
	db.invalidateStreamLocked(name)
	db.failWatchersLocked(name, fmt.Errorf("lahar: stream %q replaced", name))
	return nil
}

// Stream fetches a stream by name.
func (db *DB) Stream(name string) (*markov.Sequence, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	se, ok := db.streams[name]
	if !ok {
		return nil, fmt.Errorf("lahar: unknown stream %q", name)
	}
	return se.m, nil
}

// Streams lists stream names in sorted order.
func (db *DB) Streams() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.streams))
	for n := range db.streams {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterTransducer registers a transducer query, compiling it once
// (Table-2 classification and plan selection). Re-registering a name
// invalidates the cached engines of the previous query. Each engine's
// ranked enumeration resolves sequentially; fleet and window parallelism
// come from the store's own worker pool (WithWorkers).
func (db *DB) RegisterTransducer(name string, t *transducer.Transducer) {
	db.registerQuery(name, core.PrepareTransducer(t))
}

// RegisterSProjector registers an s-projector query; indexed selects the
// indexed semantics ([B]↓A[E]). The query is compiled once, including
// the equivalent-transducer conversion.
func (db *DB) RegisterSProjector(name string, p *sproj.SProjector, indexed bool) {
	db.registerQuery(name, core.PrepareSProjector(p, indexed))
}

func (db *DB) registerQuery(name string, pr *core.Prepared) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.clock++
	db.queries[name] = &queryEntry{prepared: pr, version: db.clock}
	db.invalidateQueryLocked(name)
}

// Queries lists query names in sorted order.
func (db *DB) Queries() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.queries))
	for n := range db.queries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// lookup snapshots the current sequence and prepared query under the
// read lock. It returns the snapshots rather than the entries: entries
// are mutable (AppendEvents swaps the sequence in place), so callers
// must not read entry fields after the lock is released.
func (db *DB) lookup(stream, qname string) (*markov.Sequence, *core.Prepared, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	se, ok := db.streams[stream]
	if !ok {
		return nil, nil, fmt.Errorf("lahar: unknown stream %q", stream)
	}
	qe, ok := db.queries[qname]
	if !ok {
		return nil, nil, fmt.Errorf("lahar: unknown query %q", qname)
	}
	return se.m, qe.prepared, nil
}

// Explain returns the evaluation plan the engine selects for the query on
// the stream, per the paper's tractability map (Table 2).
func (db *DB) Explain(stream, qname string) (string, error) {
	e, err := db.engine(stream, qname)
	if err != nil {
		return "", err
	}
	return e.Explain(), nil
}

// TopK returns the k best-ranked answers of the query on the stream. The
// ranking semantics is chosen per the paper's tractability map (Table 2):
// indexed s-projectors rank by exact confidence (Theorem 5.7), plain
// s-projectors by I_max (Theorem 5.2), and transducers by E_max
// (Theorem 4.3). Equivalent to TopKCtx with context.Background() — the
// store's deadline and in-flight limit still apply.
func (db *DB) TopK(stream, qname string, k int) ([]Result, error) {
	return db.TopKCtx(context.Background(), stream, qname, k)
}

// topK is the limiter-free core of TopK/TopKCtx, used directly by the
// fan-out methods (the outer call already holds the in-flight slot).
func (db *DB) topK(ctx context.Context, stream, qname string, k int) ([]Result, error) {
	e, err := db.engine(stream, qname)
	if err != nil {
		return nil, err
	}
	answers, err := e.TopKCtx(ctx, k)
	return resultsOf(answers), err
}

func resultsOf(answers []core.Answer) []Result {
	var out []Result
	for _, a := range answers {
		out = append(out, Result{Output: a.Output, Index: a.Index, Score: a.Score, Kind: kindOf(a.Kind)})
	}
	return out
}

func kindOf(name string) ScoreKind {
	switch name {
	case "confidence":
		return ScoreConfidence
	case "I_max":
		return ScoreImax
	case "E_max":
		return ScoreEmax
	default:
		return ScoreNone
	}
}

// Enumerate returns up to limit answers in unranked order (Theorem 4.1);
// limit ≤ 0 means all. Equivalent to EnumerateCtx with
// context.Background() — the store's deadline and in-flight limit still
// apply.
func (db *DB) Enumerate(stream, qname string, limit int) ([]Result, error) {
	return db.EnumerateCtx(context.Background(), stream, qname, limit)
}

func (db *DB) enumerate(ctx context.Context, stream, qname string, limit int) ([]Result, error) {
	e, err := db.engine(stream, qname)
	if err != nil {
		return nil, err
	}
	outputs, err := e.EnumerateCtx(ctx, limit)
	var out []Result
	for _, o := range outputs {
		out = append(out, Result{Output: o, Kind: ScoreNone})
	}
	return out, err
}

// Confidence computes the confidence of an answer, selecting the
// algorithm per Table 2: Theorem 4.6 for deterministic transducers,
// Theorem 4.8 for uniform nondeterministic ones, Theorem 5.5 for
// s-projectors, Theorem 5.8 for indexed s-projectors (index > 0). It
// returns an error for the FP^#P-hard combinations rather than silently
// running an exponential algorithm. Equivalent to ConfidenceCtx with
// context.Background() — the store's deadline and in-flight limit still
// apply.
func (db *DB) Confidence(stream, qname string, o []automata.Symbol, index int) (float64, error) {
	return db.ConfidenceCtx(context.Background(), stream, qname, o, index)
}

func (db *DB) confidence(ctx context.Context, stream, qname string, o []automata.Symbol, index int) (float64, error) {
	e, err := db.engine(stream, qname)
	if err != nil {
		return 0, err
	}
	return e.ConfidenceCtx(ctx, o, index)
}
