package lahar

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"markovseq/internal/testutil"
)

// This file is the append-then-rank differential grid: the serving path
// (ExtendValidated carries the ranked enumeration across appends)
// against a from-scratch reference — a second store handed each grown
// snapshot by PutStream, which drops every cached engine and so ranks
// the grown stream from an empty Lawler tree — across workloads × k ×
// append batch size. The comparison is tie-aware (assertTopKMatches) and
// the carry counters prove the serving store carried.

// rebuiltRef hands ref the stream inc currently holds under "s", so the
// next TopK on ref ranks that snapshot from scratch.
func rebuiltRef(t *testing.T, inc, ref *DB) {
	t.Helper()
	grown, err := inc.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.PutStream("s", grown); err != nil {
		t.Fatal(err)
	}
}

// TestRankedAppendGrid: for every workload, k and batch size, an
// incrementally served store answers TopK after each append batch
// identically to the from-scratch reference, and it does carry.
func TestRankedAppendGrid(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 30
	const p = 8
	for _, wl := range appendWorkloads(t, n) {
		t.Run(wl.name, func(t *testing.T) {
			for _, k := range []int{1, 10} {
				for _, batch := range []int{1, 7, 64} {
					label := fmt.Sprintf("k=%d batch=%d", k, batch)
					inc := wl.mk(wl.full.Window(1, p))
					ref := wl.mk(wl.full.Window(1, p))
					// Warm the engine so the very first append already has
					// ranked state to carry.
					if _, err := inc.TopK("s", "q", k); err != nil {
						t.Fatal(err)
					}
					for L := p; L < n; {
						step := batch
						if L+step > n {
							step = n - L
						}
						if _, err := inc.AppendEvents("s", eventsOf(wl.full, L, L+step)); err != nil {
							t.Fatalf("%s: append at %d: %v", label, L, err)
						}
						L += step
						got, err := inc.TopK("s", "q", k)
						if err != nil {
							t.Fatal(err)
						}
						rebuiltRef(t, inc, ref)
						want := topKThroughTies(t, ref, "s", "q", k)
						assertTopKMatches(t, fmt.Sprintf("%s L=%d", label, L), got, want, k)
					}
					if s := inc.Stats(); s.Ranked.RankedReused == 0 {
						t.Fatalf("%s: incremental store carried no answers across appends: %+v", label, s)
					}
				}
			}
		})
	}
}

// TestRankedAppendCancelResume: a drain cancelled mid-enumeration
// leaves the engine resumable; appending to the stream afterwards
// carries that partially drained state, and the next full drain over
// the grown stream matches the from-scratch reference.
func TestRankedAppendCancelResume(t *testing.T) {
	testutil.CheckLeaks(t)
	const n = 24
	const p = 12
	for _, wl := range appendWorkloads(t, n) {
		t.Run(wl.name, func(t *testing.T) {
			db := wl.mk(wl.full.Window(1, p))
			ref := wl.mk(wl.full.Window(1, p))

			// Pre-cancelled context: nothing proven, engine untouched.
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := db.TopKCtx(cancelled, "s", "q", 5); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled TopKCtx: %v", err)
			}

			// Budgeted drains abort mid-enumeration, each leaving a longer
			// proven prefix in the engine memo.
			aborted := false
			for _, budget := range []int{5, 40, 300} {
				if _, err := db.TopKCtx(newCountingCtx(budget), "s", "q", 5); errors.Is(err, context.DeadlineExceeded) {
					aborted = true
				}
			}
			if !aborted {
				t.Fatal("no budget aborted the drain mid-enumeration")
			}

			// Append across the interrupted state, then resume: the carried
			// engine must answer for the grown stream exactly.
			if _, err := db.AppendEvents("s", eventsOf(wl.full, p, n)); err != nil {
				t.Fatal(err)
			}
			got, err := db.TopK("s", "q", 5)
			if err != nil {
				t.Fatal(err)
			}
			rebuiltRef(t, db, ref)
			assertTopKMatches(t, "cancel-append-resume", got, topKThroughTies(t, ref, "s", "q", 5), 5)
		})
	}
}
