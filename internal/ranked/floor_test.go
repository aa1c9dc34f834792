package ranked

import (
	"context"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/hardness"
	"markovseq/internal/lawler"
	"markovseq/internal/transducer"
)

// TestFloorOnFlatInstance: the amplified Max-3-DNF reduction ties its
// top answers exactly — a flat E_max landscape, where every Lawler child
// inherits a bound equal to the next emission's score and Tie alone must
// resolve them all before each tied emission. The output floors must
// keep the emitted sequence bit for bit, in the pruned and the
// append-extendable serving modes alike, while resolving a small
// fraction of the subproblems.
func TestFloorOnFlatInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	hi := hardness.NewMealyInstance(hardness.RandomMax3DNF(6, 5, rng))
	m := hi.Amplify(10)
	const k = 40
	for _, mode := range []struct {
		name string
		opts []Option
	}{{"pruned", nil}, {"extendable", []Option{WithExtendable()}}} {
		drain := func(floors bool) (out []Answer, resolves int) {
			ev := NewEvaluator(hi.T, m, mode.opts...)
			cfg := lawlerConfig(func(ctx context.Context, c transducer.Constraint, align []automata.Symbol) (Answer, bool, error) {
				resolves++
				return ev.resolveAnswer(ctx, c, align)
			})
			if !floors {
				cfg.Floor = nil
			}
			e := lawler.New(cfg)
			for len(out) < k {
				a, _, ok := e.Next()
				if !ok {
					break
				}
				out = append(out, a)
			}
			return out, resolves
		}
		want, plain := drain(false)
		if len(want) != k || want[0].LogEmax != want[k-1].LogEmax {
			t.Fatalf("%s: instance no longer ties its top %d answers exactly", mode.name, k)
		}
		got, n := drain(true)
		assertSameAnswerSequence(t, mode.name, got, want)
		if n*5 > plain {
			t.Fatalf("%s: floors resolved %d subproblems, Tie alone %d; want at least 5× fewer", mode.name, n, plain)
		}
	}
}
