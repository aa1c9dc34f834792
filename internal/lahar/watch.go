package lahar

import (
	"context"
	"fmt"
	"sync"

	"markovseq/internal/core"
	"markovseq/internal/markov"
)

// WindowDelta is one per-window top-k result emitted by a sliding
// subscription as appended events complete new windows.
type WindowDelta struct {
	Stream string
	WindowResult
}

// Subscription is a live sliding-top-k watch on one stream (see
// DB.WatchSlidingTopK). Read deltas from C; Close when done. After C is
// closed, Err reports why the subscription ended (nil for a plain
// Close).
type Subscription struct {
	db             *DB
	stream, qname  string
	window, stride int
	k              int

	// run/eval hold the resident window state: the cursor's forward
	// marginals extend per append (core.StreamRun), and the ranked
	// sweeper is reused across windows. Both are guarded by the stream
	// entry's appendMu: only appenders (and the registering call) touch
	// them.
	run  *core.StreamRun
	eval *core.WindowEval

	mu       sync.Mutex
	pending  []WindowDelta
	err      error
	finished bool

	wake chan struct{} // 1-buffered nudge from producers to the pump
	quit chan struct{} // closed by Close
	once sync.Once
	ch   chan WindowDelta
}

// WatchSlidingTopK subscribes to the per-window top-k of the query over
// the named stream: every length-`window` slice (stride apart) that is —
// or becomes, via AppendEvents — complete produces one WindowDelta on
// the subscription's channel, in window order. Windows already complete
// at subscribe time are delivered first, ranked while the call holds the
// stream's append lock. Each appended event costs one O(|Σ|²) marginal
// row plus the ranked sweep of every window it completes: window state
// stays resident across appends instead of being recomputed
// (core.StreamRun), and every window goes through the same ranked
// sweeper as SlidingTopK.
//
// The subscription ends when Close is called or the stream is replaced
// by PutStream (Err then reports the replacement). The stream may be
// shorter than the window at subscribe time; deltas start once appends
// grow it past the threshold. Answerless windows are emitted with a nil
// Top.
func (db *DB) WatchSlidingTopK(stream, qname string, window, stride, k int) (*Subscription, error) {
	if window < 1 || stride < 1 || k < 1 {
		return nil, fmt.Errorf("lahar: window, stride and k must be ≥ 1")
	}
	for {
		db.mu.RLock()
		se, sok := db.streams[stream]
		qe, qok := db.queries[qname]
		db.mu.RUnlock()
		if !sok {
			return nil, fmt.Errorf("lahar: unknown stream %q", stream)
		}
		if !qok {
			return nil, fmt.Errorf("lahar: unknown query %q", qname)
		}
		se.appendMu.Lock()
		// Holding appendMu freezes the sequence; re-check the entry is
		// still current (a PutStream may have replaced it before we got
		// the lock) and register while still frozen, so no append can
		// slip between the snapshot and the registration.
		db.mu.Lock()
		if db.streams[stream] != se {
			db.mu.Unlock()
			se.appendMu.Unlock()
			continue // replaced: retry against the new entry
		}
		m := se.m
		sub := &Subscription{
			db:     db,
			stream: stream,
			qname:  qname,
			window: window,
			stride: stride,
			k:      k,
			wake:   make(chan struct{}, 1),
			quit:   make(chan struct{}),
			ch:     make(chan WindowDelta),
		}
		db.watchers[stream] = append(db.watchers[stream], sub)
		db.mu.Unlock()
		sub.run = qe.prepared.Windows(m, window, stride)
		sub.eval = sub.run.NewEval()
		sub.advance() // catch up on windows already complete
		se.appendMu.Unlock()
		go sub.pump()
		return sub, nil
	}
}

// C returns the delta channel. It is closed when the subscription ends;
// check Err afterwards.
func (s *Subscription) C() <-chan WindowDelta { return s.ch }

// Err reports why the subscription ended: nil while live or after a
// plain Close, non-nil when the stream was replaced or a window
// evaluation failed.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close ends the subscription and releases its resources. Safe to call
// more than once and concurrently with appends; pending deltas not yet
// read are discarded.
func (s *Subscription) Close() {
	s.once.Do(func() { close(s.quit) })
	s.db.mu.Lock()
	subs := s.db.watchers[s.stream]
	for i, other := range subs {
		if other == s {
			s.db.watchers[s.stream] = append(subs[:i:i], subs[i+1:]...)
			break
		}
	}
	if len(s.db.watchers[s.stream]) == 0 {
		delete(s.db.watchers, s.stream)
	}
	s.db.mu.Unlock()
	s.mu.Lock()
	s.finished = true
	s.mu.Unlock()
}

// advance drains every newly complete window into the pending queue and
// nudges the pump. Callers hold the stream entry's appendMu; m2 is the
// grown sequence (nil on the initial catch-up).
func (s *Subscription) advance(m2 ...*markov.Sequence) {
	s.mu.Lock()
	done := s.finished
	s.mu.Unlock()
	if done {
		return
	}
	if len(m2) == 1 && m2[0] != nil {
		s.run.Extend(m2[0])
	}
	for {
		w, ok := s.run.Next()
		if !ok {
			return
		}
		top, err := s.eval.TopK(context.Background(), w, s.k)
		if err != nil {
			s.fail(fmt.Errorf("lahar: watch %q/%q window [%d,%d]: %w", s.stream, s.qname, w.Start, w.End, err))
			return
		}
		s.enqueue(WindowDelta{
			Stream:       s.stream,
			WindowResult: WindowResult{Start: w.Start, End: w.End, Top: resultsOf(top)},
		})
	}
}

func (s *Subscription) enqueue(d WindowDelta) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.pending = append(s.pending, d)
	s.mu.Unlock()
	s.nudge()
}

// fail ends the subscription with an error: the pump drains the pending
// deltas already produced, then closes the channel.
func (s *Subscription) fail(err error) {
	s.mu.Lock()
	if !s.finished {
		s.err = err
		s.finished = true
	}
	s.mu.Unlock()
	s.nudge()
}

func (s *Subscription) nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pump moves deltas from the pending queue to the subscriber channel.
// It is the only sender on (and closer of) s.ch, so appenders never
// block on a slow subscriber: they enqueue and move on.
func (s *Subscription) pump() {
	defer close(s.ch)
	for {
		s.mu.Lock()
		var d WindowDelta
		have := len(s.pending) > 0
		if have {
			d = s.pending[0]
			// Clear the delivered slot: the reslice keeps the backing array,
			// and a zombie reference there would pin every delivered window's
			// answers until the array is outgrown — on a long-lived watch,
			// unbounded dead state.
			s.pending[0] = WindowDelta{}
			s.pending = s.pending[1:]
			if len(s.pending) == 0 {
				// Fully drained: drop the (offset) backing array so a
				// caught-up subscription holds no replay buffer at all.
				s.pending = nil
			}
		}
		done := s.finished
		s.mu.Unlock()
		if have {
			select {
			case s.ch <- d:
			case <-s.quit:
				return
			}
			continue
		}
		if done {
			return
		}
		select {
		case <-s.wake:
		case <-s.quit:
			return
		}
	}
}

// advanceWatchers pushes the grown sequence through every subscription
// of the stream. The caller holds the stream entry's appendMu, which is
// what serializes subscription state; db.mu is taken only to snapshot
// the watcher list.
func (db *DB) advanceWatchers(stream string, m *markov.Sequence) {
	db.mu.RLock()
	subs := append([]*Subscription(nil), db.watchers[stream]...)
	db.mu.RUnlock()
	for _, sub := range subs {
		sub.advance(m)
	}
}

// failWatchersLocked ends every subscription of the stream with err and
// drops them from the registry. Callers hold db.mu.
func (db *DB) failWatchersLocked(stream string, err error) {
	for _, sub := range db.watchers[stream] {
		sub.fail(err)
	}
	delete(db.watchers, stream)
}
