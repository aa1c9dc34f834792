package lahar

import (
	"context"
	"fmt"
)

// Event is one appended stream position: the row-stochastic |Σ|×|Σ|
// transition matrix μₙ→ from the current last position to the new one
// (Lahar's "Markovian stream" event — the marginal the upstream smoother
// produced for the new reading).
type Event [][]float64

// AppendEvents extends the named stream by the given events, in order,
// and returns the new stream length. Unlike PutStream it does NOT
// replace the stream: the sequence grows append-only, so
//
//   - cached engines survive — the stream version is unchanged and the
//     prepared plan rebinds to the grown snapshot in O(1)
//     (CacheStats.Extensions, not Invalidations);
//   - every WatchSlidingTopK subscription on the stream advances with
//     resident window state: its forward marginals extend by one row per
//     event (core.StreamRun), and only the windows the events complete
//     are ranked, not a rebuild;
//   - concurrent queries keep reading their immutable snapshot — they
//     never observe a half-applied append.
//
// Each event is validated before it is applied. On error the
// already-applied prefix of events persists (the returned length says
// how far the append got); the stream is never left in an invalid
// state. Appenders to one stream are serialized; a concurrent PutStream
// aborts the append with an error. Equivalent to AppendEventsCtx with
// context.Background(). Ingestion does not count against the store's
// query deadline or in-flight limit.
func (db *DB) AppendEvents(stream string, events []Event) (int, error) {
	return db.AppendEventsCtx(context.Background(), stream, events)
}

// AppendEventsCtx is AppendEvents with cancellation: the context is
// checked between events, and cancellation mid-append keeps the applied
// prefix and returns the current length with ctx.Err().
func (db *DB) AppendEventsCtx(ctx context.Context, stream string, events []Event) (int, error) {
	db.mu.RLock()
	se, ok := db.streams[stream]
	db.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("lahar: unknown stream %q", stream)
	}
	se.appendMu.Lock()
	defer se.appendMu.Unlock()
	// Reads of se.m below are safe without db.mu: the sequence is written
	// only under appendMu (held here), which also serializes us against
	// subscription registration.
	start := se.m
	m := start
	var failure error
	for i, ev := range events {
		if err := ctx.Err(); err != nil {
			failure = fmt.Errorf("lahar: AppendEvents %q: %w", stream, err)
			break
		}
		// The hook runs inside the append lock: a sleeping hook models a
		// slow or stalling upstream stream (watchers and other appenders
		// wait; queries keep reading the committed snapshot).
		if err := db.runHook(ctx, HookAppendEvent, stream, ""); err != nil {
			failure = fmt.Errorf("lahar: AppendEvents %q event %d: %w", stream, i, err)
			break
		}
		m2, err := m.Extended([][][]float64{ev})
		if err != nil {
			failure = fmt.Errorf("lahar: AppendEvents %q event %d: %w", stream, i, err)
			break
		}
		db.mu.Lock()
		if db.streams[stream] != se {
			db.mu.Unlock()
			return m.Len(), fmt.Errorf("lahar: stream %q replaced during append", stream)
		}
		se.m = m2
		db.mu.Unlock()
		m = m2
	}
	if m != start {
		// The applied prefix is live: advance the stream's subscriptions
		// over it even when a later event failed.
		db.advanceWatchers(stream, m)
	}
	return m.Len(), failure
}
