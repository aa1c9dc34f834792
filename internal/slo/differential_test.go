package slo

// Differential property: under injected overload shedding and deadline
// misses, every successful (or deadline-truncated) ranked response must
// be a bit-identical prefix of the unloaded reference drain. Shedding
// and deadlines may shorten answers — they must never reorder, rescore,
// or corrupt them. (The mid-drain prefix bit-identity of a cancelled
// enumeration is pinned by internal/lahar's own ctx tests; this test
// pins the property across the harness's fault stack.)

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"markovseq/internal/lahar"
	"markovseq/internal/testutil"
)

func TestLoadedRankedIsPrefixOfReference(t *testing.T) {
	testutil.CheckLeaks(t)
	const refK = 12

	// Two fixtures built from the same seed hold identical streams; the
	// reference store has no admission limit, no deadline, no faults.
	base := &Scenario{
		Name: "diff", Workload: "adversarial",
		Rate: 1, Duration: Duration(time.Second), Seed: 99,
		Mix: []OpWeight{{Op: OpTopK, Weight: 1}},
	}
	refFx, err := NewFixture(base)
	if err != nil {
		t.Fatal(err)
	}
	loadedSc := *base
	loadedSc.MaxInFlight = 2
	loadedSc.Deadline = Duration(4 * time.Millisecond)
	loadedFx, err := NewFixture(&loadedSc)
	if err != nil {
		t.Fatal(err)
	}
	db := loadedFx.DB
	stream, query := refFx.Streams[0], refFx.Query

	ref, err := refFx.DB.TopK(stream, query, refK)
	if err != nil {
		t.Fatalf("reference drain: %v", err)
	}
	if len(ref) == 0 {
		t.Fatal("reference drain is empty")
	}

	// checkPrefix asserts the differential property on one response:
	// whatever came back is exactly the reference prefix — outputs,
	// indices, scores, kinds.
	checkPrefix := func(k int, res []lahar.Result, err error) {
		t.Helper()
		if len(res) == 0 {
			return // the empty prefix (nil or zero-length) is trivially valid
		}
		if len(res) > len(ref) || !reflect.DeepEqual(res, ref[:len(res)]) {
			t.Errorf("k=%d (err %v): response is not a reference prefix:\n got %v\nwant %v",
				k, err, res, ref[:min(len(res), len(ref))])
		}
	}

	// Phase 1 — deterministic deadline misses and sheds: every admitted
	// query stalls in a test-local hook past its 4ms store deadline and
	// keeps stalling, holding its in-flight slot, until the shed loop
	// below has run, so the two admitted occupants miss their deadline
	// and everything else is shed however the goroutines are scheduled.
	// (The fault injector's own stall path is covered by harness_test.go.)
	entered := make(chan struct{}, 2) // one send per occupant
	release := make(chan struct{})
	db.SetServeHook(func(ctx context.Context, _ lahar.HookOp, _, _ string) error {
		entered <- struct{}{}
		<-ctx.Done()
		<-release
		return ctx.Err()
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.TopKCtx(context.Background(), stream, query, refK)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("stalled query: err = %v, want DeadlineExceeded", err)
			}
			checkPrefix(refK, res, err)
		}()
	}
	timeout := time.After(2 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-timeout:
			close(release)
			wg.Wait()
			t.Fatal("stalled queries never occupied the in-flight slots")
		}
	}
	sheds := 0
	for i := 0; i < 6; i++ {
		res, err := db.TopKCtx(context.Background(), stream, query, refK)
		if errors.Is(err, lahar.ErrOverloaded) {
			sheds++
			if len(res) != 0 {
				t.Errorf("shed response carried %d answers", len(res))
			}
			continue
		}
		checkPrefix(refK, res, err)
	}
	close(release)
	wg.Wait()
	if sheds == 0 {
		t.Error("no query was shed while the in-flight slots were held")
	}
	if s := db.ServeStats(); s.DeadlineMisses < 2 {
		t.Errorf("store recorded %d deadline misses, want ≥ 2", s.DeadlineMisses)
	}

	// Phase 2 — faults off: every k from 1..refK must reproduce the
	// reference prefix exactly on the same store that was just shedding
	// and missing deadlines (sequential: nothing else in flight, so no
	// query may shed or miss here).
	db.SetServeHook(nil)
	for k := 1; k <= refK; k++ {
		res, err := db.TopKCtx(context.Background(), stream, query, k)
		if err != nil {
			t.Errorf("k=%d: %v", k, err)
			continue
		}
		if len(res) != min(k, len(ref)) {
			t.Errorf("k=%d: got %d answers, want %d", k, len(res), min(k, len(ref)))
		}
		checkPrefix(k, res, err)
	}
}
