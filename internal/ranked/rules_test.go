// Tests of the rules that pick an enumeration's sweep and count its
// checkpoint handles: NewEnumerator prunes exactly when it is not
// extendable and its sequence has at least kernel.BoundsMinN positions,
// every mode and the Sweeper count the handles they make and the layers
// those materialize, and PruneStats may be read while a drain runs.
package ranked

import (
	"context"
	"sync"
	"testing"

	"markovseq/internal/kernel"
	"markovseq/internal/testutil"
)

// TestNewEnumeratorPrunesFromBoundsMinN pins the length rule: a drain at
// n = BoundsMinN−1 runs no pruned resolve, one at BoundsMinN does, an
// extendable one at BoundsMinN does not, and every drain is bit-identical
// to the exhaustive reference.
func TestNewEnumeratorPrunesFromBoundsMinN(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		opts   []Option
		prunes bool
	}{
		{"short", kernel.BoundsMinN - 1, nil, false},
		{"long", kernel.BoundsMinN, nil, true},
		{"extendable", kernel.BoundsMinN, []Option{WithExtendable()}, false},
	} {
		tr, m := rfidRankedWorkload(t, tc.n)
		e := NewEnumerator(tr, m, tc.opts...)
		got := drainAnswers(e.Next, 15)
		assertSameAnswerSequence(t, tc.name, got, drainAnswers(exhaustive(tr, m).Next, 15))
		if r := e.PruneStats().Resolves; (r > 0) != tc.prunes {
			t.Fatalf("%s: n=%d drain ran %d pruned resolves, want pruning %v", tc.name, tc.n, r, tc.prunes)
		}
	}
}

// TestEveryModeCountsHandles: a pruned, an exhaustive and an extendable
// enumerator, and a Sweeper over two windows, each report the handles
// they made and the layers those materialized, no more than a full build
// per handle.
func TestEveryModeCountsHandles(t *testing.T) {
	const n = 40
	tr, m := rfidRankedWorkload(t, n+1)
	w := m.Window(1, n)
	check := func(name string, st kernel.PruneStats) {
		t.Helper()
		if st.LazyHandles == 0 || st.LazyLayers == 0 || st.LazyLayers > st.LazyHandles*n {
			t.Fatalf("%s: %d handles materialized %d layers over n=%d", name, st.LazyHandles, st.LazyLayers, n)
		}
	}
	for _, mode := range []struct {
		name string
		e    *Enumerator
	}{
		{"pruned", NewEnumerator(tr, w)},
		{"exhaustive", exhaustive(tr, w)},
		{"extendable", NewEnumerator(tr, w, WithExtendable())},
	} {
		drainAnswers(mode.e.Next, 15)
		check(mode.name, mode.e.PruneStats())
	}
	// The Sweeper counts a window's layers when it recycles its handles,
	// at the next window.
	sw := NewSweeper(tr)
	for _, win := range []int{1, 2} {
		if _, err := sw.TopK(context.Background(), m.Window(win, win+n-1), 15); err != nil {
			t.Fatal(err)
		}
	}
	check("sweeper", sw.PruneStats())
}

// TestPruneStatsDuringDrain reads PruneStats in a loop while another
// goroutine drains a pruned enumerator, which computes its potentials
// on its first resolve and counts handles and layers as it goes. Under
// -race this is the check that PruneStats is safe while a drain runs.
func TestPruneStatsDuringDrain(t *testing.T) {
	testutil.CheckLeaks(t)
	tr, m := rfidRankedWorkload(t, 40)
	e := NewEnumerator(tr, m)
	started, done := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.PruneStats()
		close(started)
		for {
			select {
			case <-done:
				return
			default:
				e.PruneStats()
			}
		}
	}()
	<-started
	drainAnswers(e.Next, 15)
	close(done)
	wg.Wait()
	if st := e.PruneStats(); st.Resolves == 0 || st.LazyHandles == 0 {
		t.Fatalf("drain reported no pruned resolves or handles: %+v", st)
	}
}
