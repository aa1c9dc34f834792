package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"markovseq/internal/automata"
	"markovseq/internal/core"
	"markovseq/internal/lahar"
	"markovseq/internal/ranked"
)

// answer is one ranked answer as any layer reports it: the output, the
// score, and (on cold-rank) the confidence.
type answer struct {
	out   []automata.Symbol
	score float64
	conf  float64
}

func fromResults(rs []lahar.Result) []answer {
	out := make([]answer, len(rs))
	for i, r := range rs {
		out[i] = answer{out: r.Output, score: r.Score}
	}
	return out
}

func fromCore(as []core.Answer) []answer {
	out := make([]answer, len(as))
	for i, a := range as {
		out[i] = answer{out: a.Output, score: a.Score}
	}
	return out
}

// fromRanked converts the ranked layer's log scores exactly as core does,
// so the passes of a traced run agree bit for bit.
func fromRanked(as []ranked.Answer) []answer {
	out := make([]answer, len(as))
	for i, a := range as {
		out[i] = answer{out: a.Output, score: math.Exp(a.LogEmax)}
	}
	return out
}

// digest hashes a request's answers — outputs, score bits, confidence bits
// — so that the passes of a traced run can be compared request by request.
func digest(as []answer) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(as)))
	for _, a := range as {
		put(uint64(len(a.out)))
		for _, s := range a.out {
			put(uint64(s))
		}
		put(math.Float64bits(a.score))
		put(math.Float64bits(a.conf))
	}
	return h.Sum64()
}

// throughTies drains eng's top k and then extends the drain through its
// last tied score class, so that a k-drain of another construction can be
// compared with it as a set within that class.
func throughTies(ctx context.Context, eng *core.Engine, k int) ([]answer, error) {
	top, err := eng.TopKCtx(ctx, k)
	if err != nil || len(top) < k {
		return fromCore(top), err
	}
	last := top[k-1].Score
	for kk := k + 1; ; kk++ {
		next, err := eng.TopKCtx(ctx, kk)
		if err != nil {
			return nil, err
		}
		if len(next) < kk || next[kk-1].Score != last {
			return fromCore(next[:min(len(next), kk-1)]), nil
		}
	}
}

// compareRanked checks got, a k-drain, against want, a reference drain
// extended through its last tie class (throughTies). Scores must be
// bit-identical rank by rank, and answers set-identical within each run of
// equal scores: a carried enumeration orders an exact tie class by its own
// Lawler tree, which a fresh drain need not share (ranked.ExtendEnumerator).
func compareRanked(got, want []answer, k int) error {
	n := min(k, len(want))
	if len(got) != n {
		return fmt.Errorf("%d answers, reference has %d (k=%d)", len(got), n, k)
	}
	for i := range got {
		if math.Float64bits(got[i].score) != math.Float64bits(want[i].score) {
			return fmt.Errorf("rank %d: score %v, reference %v", i, got[i].score, want[i].score)
		}
	}
	key := func(a answer) string { return fmt.Sprint(a.out) }
	class := map[float64]map[string]bool{}
	for _, a := range want {
		if class[a.score] == nil {
			class[a.score] = map[string]bool{}
		}
		class[a.score][key(a)] = true
	}
	seen := map[float64]int{}
	dup := map[string]bool{}
	for i, a := range got {
		k := key(a)
		if !class[a.score][k] {
			return fmt.Errorf("rank %d: answer %v is not among the reference answers scoring %v", i, a.out, a.score)
		}
		if dup[k] {
			return fmt.Errorf("rank %d: answer %v repeated", i, a.out)
		}
		dup[k] = true
		seen[a.score]++
	}
	if n == 0 {
		return nil
	}
	last := got[n-1].score
	for s, c := range seen {
		if s != last && c != len(class[s]) {
			return fmt.Errorf("tie class %v: %d answers, reference has %d", s, c, len(class[s]))
		}
	}
	return nil
}

// compareExact checks got against want answer by answer, bit for bit.
func compareExact(got, want []answer) error {
	if digest(got) == digest(want) {
		return nil
	}
	return fmt.Errorf("answers %v, reference %v", got, want)
}
