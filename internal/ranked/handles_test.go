//go:build go1.24

package ranked

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"markovseq/internal/kernel"
	"markovseq/internal/lawler"
	"markovseq/internal/transducer"
)

// TestColdDrainKeepsOnlyReadableHandles: a pruned enumerator's tree is
// the only owner of its checkpoint handles, so after a 200-answer RFID
// drain exactly the handles of answers with a child still unresolved
// stay reachable — besides the root's, which the enumerator holds —
// however many answers the drain emitted.
func TestColdDrainKeepsOnlyReadableHandles(t *testing.T) {
	if testing.Short() {
		t.Skip("n=200 drain in -short mode")
	}
	tr, m := rfidRankedWorkload(t, 200)
	e := NewEnumerator(tr, m)
	// pending counts each handle's children not yet resolved; weak keys
	// keep the audit from holding the handles alive.
	pending := map[weak.Pointer[kernel.Checkpoint]]int{}
	cfg := lawlerConfig(e, func(ctx context.Context, c transducer.Constraint, ck *kernel.Checkpoint, prior *kernel.ResumeState) (resolution, bool, error) {
		if ck != e.root {
			pending[weak.Make(ck)]--
		}
		return e.resolveAnswer(ctx, c, ck, prior)
	}, false)
	children := cfg.Children
	cfg.Children = func(c transducer.Constraint, top *resolution) []transducer.Constraint {
		kids := children(c, top)
		if top.ck != nil && top.ck != e.root {
			pending[weak.Make(top.ck)] += len(kids)
		}
		return kids
	}
	e.inner = lawler.New(cfg)
	if got := drainAnswers(e.Next, 200); len(got) < 200 {
		t.Fatalf("drained %d answers, want 200", len(got))
	}
	runtime.GC()
	alive := 0
	for w, n := range pending {
		if live := w.Value() != nil; live != (n > 0) {
			t.Fatalf("a handle with %d unresolved children is reachable: %v", n, live)
		} else if live {
			alive++
		}
	}
	runtime.KeepAlive(e)
	if alive == 0 || alive >= len(pending) {
		t.Fatalf("%d of %d answer handles reachable after the drain; want some, not all", alive, len(pending))
	}
	t.Logf("%d of %d answer handles reachable after a 200-answer drain", alive, len(pending))
}
