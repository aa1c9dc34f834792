package ranked

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"markovseq/internal/automata"
	"markovseq/internal/markov"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

// drainCtx pulls answers through NextCtx until ok=false, an error, or k
// answers (k ≤ 0 means no bound), returning the answers and the first
// error observed.
func drainCtx(ctx context.Context, e *Enumerator, k int) ([]Answer, error) {
	var out []Answer
	for k <= 0 || len(out) < k {
		a, ok, err := e.NextCtx(ctx)
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out, nil
}

// TestCancelYieldsExactRankedPrefix is the cancellation correctness
// contract: cancelling after k answers yields exactly the first k
// answers of the uncancelled enumeration — bit-identical outputs and
// scores, never a reordered or partial-rank mixture — and a later call
// with a live context resumes the identical remainder.
func TestCancelYieldsExactRankedPrefix(t *testing.T) {
	testutil.CheckLeaks(t)
	type workload struct {
		name string
		t    *transducer.Transducer
		m    *markov.Sequence
	}
	var ws []workload
	{
		tr, m := rfidRankedWorkload(t, 40)
		ws = append(ws, workload{"rfid", tr, m})
	}
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(9200 + trial)))
		m := markov.Random(in, 2+rng.Intn(4), 0.6, rng)
		ws = append(ws, workload{"random", randomNDTransducer(in, out, 1+rng.Intn(3), rng), m})
	}
	for _, w := range ws {
		full := drainAnswers(NewEnumerator(w.t, w.m).Next, 30)
		if len(full) < 3 {
			continue
		}
		for _, k := range []int{0, 1, len(full) / 2, len(full) - 1} {
			e := NewEnumerator(w.t, w.m)
			ctx, cancel := context.WithCancel(context.Background())
			var prefix []Answer
			if k > 0 {
				var err error
				prefix, err = drainCtx(ctx, e, k)
				if err != nil {
					t.Fatalf("%s: live-context drain failed: %v", w.name, err)
				}
			}
			cancel()
			if a, ok, err := e.NextCtx(ctx); !errors.Is(err, context.Canceled) || ok {
				t.Fatalf("%s k=%d: cancelled NextCtx = (%v, %v, %v), want context.Canceled",
					w.name, k, a, ok, err)
			}
			assertSameAnswerSequence(t, w.name+" cancelled prefix", prefix, full[:k])
			// A cancelled call consumes nothing: resuming with a live
			// context continues the exact ranked sequence.
			rest, err := drainCtx(context.Background(), e, len(full)-k)
			if err != nil {
				t.Fatalf("%s: resume after cancel failed: %v", w.name, err)
			}
			assertSameAnswerSequence(t, w.name+" resumed suffix", rest, full[k:len(full)])
		}
	}
}

// TestNextCtxMatchesNext checks that an uncancelled NextCtx drain is
// bit-identical to the legacy Next drain.
func TestNextCtxMatchesNext(t *testing.T) {
	testutil.CheckLeaks(t)
	tr, m := textgenRankedWorkload(t)
	want := drainAnswers(NewEnumerator(tr, m).Next, 25)
	got, err := drainCtx(context.Background(), NewEnumerator(tr, m), 25)
	if err != nil {
		t.Fatalf("NextCtx drain failed: %v", err)
	}
	assertSameAnswerSequence(t, "NextCtx", got, want)
}

// TestExpiredDeadlineReturnsImmediately checks that an already-expired
// context aborts before any resolution work and reports
// context.DeadlineExceeded.
func TestExpiredDeadlineReturnsImmediately(t *testing.T) {
	testutil.CheckLeaks(t)
	tr, m := rfidRankedWorkload(t, 40)
	e := NewEnumerator(tr, m)
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if _, ok, err := e.NextCtx(ctx); !errors.Is(err, context.DeadlineExceeded) || ok {
		t.Fatalf("expired-deadline NextCtx ok=%v err=%v, want DeadlineExceeded", ok, err)
	}
	// The expired call consumed nothing.
	if a, ok, err := e.NextCtx(context.Background()); err != nil || !ok {
		t.Fatalf("resume after deadline ok=%v err=%v", ok, err)
	} else if want := drainAnswers(NewEnumerator(tr, m).Next, 1); !automata.EqualStrings(a.Output, want[0].Output) {
		t.Fatalf("first answer after expiry %v, want %v", a.Output, want[0].Output)
	}
}
