package lahar

// Prepared-engine cache: the serving layer of the store.
//
// Building a core.Engine for a (stream, query) pair runs the Table-2
// classification, validates the sequence, and (for s-projectors) builds
// the equivalent transducer; the engine in turn memoizes its ranked and
// unranked answer prefixes. All of that is pure compilation — it depends
// only on the stream contents and the query definition — so the store
// caches the bound engine per (stream, query) and serves it to every
// later call.
//
// Invalidation is by version stamp, not by eviction scans: every
// PutStream / Register* bumps a store-wide clock and stamps the new
// entry with it, and an engine is served only when the stream and query
// versions recorded at build time both equal the current entries'
// versions. A replaced stream or query therefore can never satisfy the
// version check for an engine built against its predecessor — stale
// engines are unservable by construction. Replacement also proactively
// deletes the dead cache entries so the map does not grow with churn.

import (
	"fmt"
	"sync/atomic"

	"markovseq/internal/core"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
)

// engineKey identifies a cached engine by stream and query name.
type engineKey struct {
	stream, query string
}

// engineEntry is a cached engine together with the stream and query
// versions it was built against, plus the stream length at build time:
// within one stream generation the sequence only grows (AppendEvents),
// so (version, length) pins the exact snapshot the engine binds.
type engineEntry struct {
	sv, qv uint64
	slen   int
	eng    *core.Engine
}

// eventCacheEntry caches MatchProb results for one stream generation at
// one length (appends change acceptance probabilities, so a grown stream
// starts a fresh generation). probs is keyed by automaton identity:
// callers must treat an automaton passed to MatchProb as immutable
// afterwards; its size is capped at maxEventCacheProbs.
type eventCacheEntry struct {
	sv    uint64
	slen  int
	probs map[any]float64
}

// maxEventCacheProbs caps the per-stream MatchProb cache: one generation
// holds at most this many distinct automata before it is dropped and
// rebuilt (counted as an invalidation).
const maxEventCacheProbs = 1024

// cacheCounters tracks cache effectiveness; read via Stats.
type cacheCounters struct {
	hits, misses, invalidations, extensions atomic.Uint64
}

// CacheStats is a snapshot of the prepared-engine cache counters.
type CacheStats struct {
	// Hits counts engine requests served from the cache; Misses counts
	// requests that (re)built an engine.
	Hits, Misses uint64
	// Invalidations counts cache entries dropped because their stream or
	// query was replaced (or an event cache overflowed its cap).
	Invalidations uint64
	// Extensions counts cached engines rebound because their stream grew
	// by AppendEvents: an O(1) rebind of the prepared plan, not a
	// recompilation, and deliberately not counted as a miss or an
	// invalidation.
	Extensions uint64
	// Ranked sums the kernel.PruneStats of the currently cached engines:
	// the pruning, candidate-selection and lazy-checkpoint counters of
	// their E_max enumerations, plus the cross-append carry counters
	// (RankedReused, RankedReseeded, HandlesSkipped) of enumerations
	// carried by AppendEvents. It is a snapshot of the live cache —
	// engines dropped by invalidation take their counts with them, so
	// the sum can fall.
	//
	// Only the carry and lazy-checkpoint counters move for the queries
	// the store serves today: every transducer engine it binds is
	// append-extendable (core.Prepared.ExtendValidated), whose resolves
	// run unpruned, and s-projector rankers are not Lawler-tree-based.
	Ranked kernel.PruneStats
}

// Stats returns a snapshot of the engine-cache counters. It sums the
// engines' counters outside db.mu: an engine's PruneStats waits for any
// drain in progress on it, and holding the read lock across that wait
// would let one queued writer stall every other query of the store.
func (db *DB) Stats() CacheStats {
	s := CacheStats{
		Hits:          db.stats.hits.Load(),
		Misses:        db.stats.misses.Load(),
		Invalidations: db.stats.invalidations.Load(),
		Extensions:    db.stats.extensions.Load(),
	}
	db.mu.RLock()
	engs := make([]*core.Engine, 0, len(db.engines))
	for _, ent := range db.engines {
		engs = append(engs, ent.eng)
	}
	db.mu.RUnlock()
	for _, eng := range engs {
		s.Ranked = s.Ranked.Add(eng.PruneStats())
	}
	return s
}

// engine returns the cached evaluation engine for (stream, qname),
// building and installing it on miss. The returned engine is safe for
// concurrent use (see core.Engine); it reflects the stream and query
// entries current at the time of the call.
func (db *DB) engine(stream, qname string) (*core.Engine, error) {
	db.mu.RLock()
	se, sok := db.streams[stream]
	qe, qok := db.queries[qname]
	var m *markov.Sequence
	var ent *engineEntry
	if sok {
		// Snapshot the sequence under the lock: AppendEvents swaps se.m
		// for a longer snapshot in place, so se.m must not be re-read
		// after the lock is released.
		m = se.m
	}
	if sok && qok {
		ent = db.engines[engineKey{stream, qname}]
	}
	db.mu.RUnlock()
	if !sok {
		return nil, fmt.Errorf("lahar: unknown stream %q", stream)
	}
	if !qok {
		return nil, fmt.Errorf("lahar: unknown query %q", qname)
	}
	var old *core.Engine
	if ent != nil && ent.sv == se.version && ent.qv == qe.version {
		if ent.slen == m.Len() {
			db.stats.hits.Add(1)
			return ent.eng, nil
		}
		// Same generation, grown stream: the prepared plan rebinds in O(1)
		// below — no invalidation, no recompilation — and the predecessor
		// engine's ranked enumeration state is carried across the append.
		db.stats.extensions.Add(1)
		old = ent.eng
	} else {
		db.stats.misses.Add(1)
	}
	// Build outside the lock: compilation can be slow and must not block
	// readers. The sequence was validated by PutStream (appended events
	// by AppendEvents). ExtendValidated binds in extendable ranked mode
	// and reseeds from the predecessor when the stream merely grew, so
	// repeated append-then-TopK serving is incremental in the appended
	// suffix.
	eng, err := qe.prepared.ExtendValidated(old, m)
	if err != nil {
		return nil, fmt.Errorf("lahar: stream %q, query %q: %w", stream, qname, err)
	}
	db.mu.Lock()
	// Install only if the snapshot we built against is still current; a
	// concurrent PutStream/Register*/AppendEvents means our engine is
	// already stale and must not be cached (the caller may still use it —
	// it answers for the snapshot it observed).
	cse, sok := db.streams[stream]
	cqe, qok := db.queries[qname]
	if sok && qok && cse == se && cse.m == m && cqe.version == qe.version {
		db.engines[engineKey{stream, qname}] = &engineEntry{sv: se.version, qv: qe.version, slen: m.Len(), eng: eng}
	}
	db.mu.Unlock()
	return eng, nil
}

// invalidateStreamLocked drops every cache entry bound to the named
// stream. Callers hold db.mu.
func (db *DB) invalidateStreamLocked(name string) {
	for k := range db.engines {
		if k.stream == name {
			delete(db.engines, k)
			db.stats.invalidations.Add(1)
		}
	}
	if _, ok := db.events[name]; ok {
		delete(db.events, name)
		db.stats.invalidations.Add(1)
	}
}

// invalidateQueryLocked drops every cache entry bound to the named
// query. Callers hold db.mu.
func (db *DB) invalidateQueryLocked(name string) {
	for k := range db.engines {
		if k.query == name {
			delete(db.engines, k)
			db.stats.invalidations.Add(1)
		}
	}
}
