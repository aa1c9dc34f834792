// Differential tests for the constraint-incremental kernels: the
// on-the-fly constrained Viterbi must agree with possible-worlds brute
// force on randomized transducers, sequences, and constraints; resuming
// from a checkpoint aligned to a longer answer must be bit-identical to
// solving from scratch (the invariant the parallel enumerator's shared
// checkpoint LRU relies on); and the boolean reachability kernel must
// agree with brute-force nonemptiness.
package kernel_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/kernel"
	"markovseq/internal/markov"
	"markovseq/internal/transducer"
)

// bruteTop returns the brute-force constrained top answer: the highest
// world probability among worlds with an accepting run whose output c
// admits, plus the set of admitted outputs attaining it.
func bruteTop(tr *transducer.Transducer, m *markov.Sequence, c transducer.Constraint) (float64, map[string]bool) {
	best := math.Inf(-1)
	argmax := map[string]bool{}
	m.Enumerate(func(s []automata.Symbol, p float64) bool {
		lp := math.Log(p)
		for _, o := range tr.Transduce(s, 0) {
			if !c.Admits(o) {
				continue
			}
			if lp > best+1e-12 {
				best = lp
				argmax = map[string]bool{automata.StringKey(o): true}
			} else if math.Abs(lp-best) <= 1e-12 {
				argmax[automata.StringKey(o)] = true
			}
		}
		return true
	})
	return best, argmax
}

// randomConstraints derives a mixed bag of constraints from the answer
// set: Lawler children of answers, plus random prefixes/modes/forbidden
// sets (including unsatisfiable ones).
func randomConstraints(ans map[string][]automata.Symbol, out *automata.Alphabet, rng *rand.Rand) []transducer.Constraint {
	cs := []transducer.Constraint{transducer.Unconstrained()}
	for _, o := range ans {
		cs = append(cs, transducer.Unconstrained().Children(o)...)
		if len(cs) > 24 {
			break
		}
	}
	for i := 0; i < 6; i++ {
		p := make([]automata.Symbol, rng.Intn(4))
		for j := range p {
			p[j] = automata.Symbol(rng.Intn(out.Size()))
		}
		c := transducer.Constraint{Prefix: p, Mode: transducer.ConstraintMode(rng.Intn(3))}
		if rng.Intn(2) == 0 {
			c.Forbidden = map[automata.Symbol]bool{automata.Symbol(rng.Intn(out.Size())): true}
		}
		cs = append(cs, c)
	}
	return cs
}

// TestConstrainedViterbiDifferential checks the on-the-fly constrained
// kernel against possible-worlds brute force: same top score, and the
// returned answer is one of the brute-force argmax outputs.
func TestConstrainedViterbiDifferential(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(11000 + trial)))
		m := markov.Random(in, 2+rng.Intn(4), 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		v := m.View()
		ans := answers(tr, m)
		for _, c := range randomConstraints(ans, out, rng) {
			o, _, _, logp, ok := kernel.ConstrainedViterbi(nt, v, c, nil, nil)
			want, argmax := bruteTop(tr, m, c)
			if !ok {
				if !math.IsInf(want, -1) {
					t.Fatalf("trial %d %v: kernel says empty, brute force best %v", trial, c, want)
				}
				continue
			}
			if math.IsInf(want, -1) {
				t.Fatalf("trial %d %v: kernel answer %v but brute force empty", trial, c, o)
			}
			if relErr(logp, want) > 1e-9 {
				t.Fatalf("trial %d %v: score %v vs brute %v", trial, c, logp, want)
			}
			if !c.Admits(o) {
				t.Fatalf("trial %d %v: answer %v not admitted", trial, c, o)
			}
			if !argmax[automata.StringKey(o)] {
				t.Fatalf("trial %d %v: answer %v not among brute argmax %v", trial, c, o, argmax)
			}
		}
	}
}

// TestResumeMatchesFromScratch is the checkpoint-soundness property: for
// every Lawler child constraint of an answer o, resuming from the
// checkpoint aligned to o is bit-identical (answer bytes, evidence,
// score) to solving the child from scratch.
func TestResumeMatchesFromScratch(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(12000 + trial)))
		m := markov.Random(in, 2+rng.Intn(4), 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		v := m.View()
		for _, o := range answers(tr, m) {
			ck := kernel.NewLazyCheckpoint(nt, v, o, nil)
			kids := transducer.Unconstrained().Children(o)
			// Nested children exercise deeper prefixes against the same
			// checkpoint (their prefixes still align with o).
			for _, c := range kids {
				if len(c.Prefix) < len(o) && c.Mode == transducer.ExactOnly {
					kids = append(kids, transducer.Constraint{Prefix: c.Prefix, Mode: transducer.ExtensionsOnly})
				}
			}
			for _, c := range kids {
				if !automata.HasPrefix(o, c.Prefix) {
					continue
				}
				ro, rn, rs, rlp, rok, _, _ := kernel.ResumeEvidence(context.Background(), nt, v, ck, c, nil, nil, nil, nil)
				so, sn, ss, slp, sok := kernel.ConstrainedViterbi(nt, v, c, nil, nil)
				if rok != sok {
					t.Fatalf("trial %d %v: resume ok=%v scratch ok=%v", trial, c, rok, sok)
				}
				if !rok {
					continue
				}
				if rlp != slp {
					t.Fatalf("trial %d %v: resume score %v != scratch %v", trial, c, rlp, slp)
				}
				if automata.StringKey(ro) != automata.StringKey(so) {
					t.Fatalf("trial %d %v: resume answer %v != scratch %v", trial, c, ro, so)
				}
				if automata.StringKey(rn) != automata.StringKey(sn) {
					t.Fatalf("trial %d %v: resume nodes %v != scratch %v", trial, c, rn, sn)
				}
				for i := range rs {
					if rs[i] != ss[i] {
						t.Fatalf("trial %d %v: resume states %v != scratch %v", trial, c, rs, ss)
					}
				}
			}
		}
	}
}

// TestConstrainedViterbiEvidence checks that the evidence returned by the
// kernel is genuine: the node string is a positive-probability world with
// probability exp(logp), and transducing it yields the answer.
func TestConstrainedViterbiEvidence(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(13000 + trial)))
		m := markov.Random(in, 2+rng.Intn(4), 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		v := m.View()
		worlds := map[string]float64{}
		m.Enumerate(func(s []automata.Symbol, p float64) bool {
			worlds[automata.StringKey(s)] = p
			return true
		})
		ans := answers(tr, m)
		for _, c := range randomConstraints(ans, out, rng) {
			o, nodes, _, logp, ok := kernel.ConstrainedViterbi(nt, v, c, nil, nil)
			if !ok {
				continue
			}
			p, exists := worlds[automata.StringKey(nodes)]
			if !exists {
				t.Fatalf("trial %d %v: evidence %v is not a positive-probability world", trial, c, nodes)
			}
			if relErr(math.Log(p), logp) > 1e-9 {
				t.Fatalf("trial %d %v: evidence world prob %v vs claimed %v", trial, c, math.Log(p), logp)
			}
			found := false
			for _, oo := range tr.Transduce(nodes, 0) {
				if automata.StringKey(oo) == automata.StringKey(o) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d %v: transducing evidence %v does not yield answer %v", trial, c, nodes, o)
			}
		}
	}
}

// TestConstrainedNonEmptyDifferential checks the boolean reachability
// kernel against brute-force nonemptiness.
func TestConstrainedNonEmptyDifferential(t *testing.T) {
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x", "y")
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(14000 + trial)))
		m := markov.Random(in, 2+rng.Intn(4), 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		v := m.View()
		ans := answers(tr, m)
		for _, c := range randomConstraints(ans, out, rng) {
			got := kernel.ConstrainedNonEmpty(nt, v, c, nil)
			want, _ := bruteTop(tr, m, c)
			if got != !math.IsInf(want, -1) {
				t.Fatalf("trial %d %v: kernel %v, brute force %v", trial, c, got, want)
			}
		}
	}
}

// TestResumeIncContinuesAcrossAppend drives the continuation sweep of
// ResumeConstrainedIncCtx directly: a traced capture resume over a
// prefix of the sequence, positions appended, then a resume against the
// extended checkpoint seeded with that capture. It must take the
// continuation path and agree with a fresh capture resume over the grown
// view — answer, evidence and score bit for bit, final frontier as a
// set — for both extension constraint modes.
func TestResumeIncContinuesAcrossAppend(t *testing.T) {
	ctx := context.Background()
	in := automata.MustAlphabet("a", "b", "c")
	out := automata.MustAlphabet("x", "y")
	modes := []transducer.ConstraintMode{transducer.PrefixAndExtensions, transducer.ExtensionsOnly}
	checked := map[transducer.ConstraintMode]int{}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(48000 + trial)))
		n := 6 + rng.Intn(6)
		full := markov.Random(in, n, 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		p := 2 + rng.Intn(n-3)
		short := full.Window(1, p)
		grown := short
		for i := p; i < n; i++ {
			var err error
			if grown, err = grown.Extended([][][]float64{full.TransAt(i)}); err != nil {
				t.Fatal(err)
			}
		}
		vs, vg := short.View(), grown.View()
		o, _, _, _, ok := kernel.ConstrainedViterbi(nt, vs, transducer.Unconstrained(), nil, nil)
		if !ok {
			continue
		}
		for _, mode := range modes {
			for cut := 0; cut <= len(o); cut++ {
				c := transducer.Constraint{Prefix: o[:cut], Mode: mode}
				label := fmt.Sprintf("trial %d p=%d/%d %v", trial, p, n, c)
				base := kernel.NewLazyCheckpoint(nt, vs, o, nil)
				prior := &kernel.ResumeState{}
				if _, _, _, _, err := kernel.ResumeConstrainedIncCtx(ctx, nt, vs, base, c, nil, prior, nil); err != nil {
					t.Fatal(err)
				}

				var cont, want kernel.ResumeState
				co, cn, _, clp, cok, continued, err := kernel.ResumeEvidence(ctx, nt, vg, kernel.NewExtendedLazyCheckpoint(nt, vg, base), c, nil, prior, &cont, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !continued {
					t.Fatalf("%s: resume against the extended checkpoint did not continue the prior sweep", label)
				}
				fo, fn, _, flp, fok, fcont, err := kernel.ResumeEvidence(ctx, nt, vg, kernel.NewLazyCheckpoint(nt, vg, o, nil), c, nil, nil, &want, nil)
				if err != nil {
					t.Fatal(err)
				}
				if fcont {
					t.Fatalf("%s: a resume without a prior reported a continuation", label)
				}
				if cok != fok || clp != flp || !automata.EqualStrings(co, fo) || !automata.EqualStrings(cn, fn) {
					t.Fatalf("%s: continued (%v %v %v %v) != fresh (%v %v %v %v)",
						label, cok, co, cn, clp, fok, fo, fn, flp)
				}
				if cont.N != want.N || len(cont.Cells) != len(want.Cells) {
					t.Fatalf("%s: continued frontier N=%d |cells|=%d, fresh N=%d |cells|=%d",
						label, cont.N, len(cont.Cells), want.N, len(want.Cells))
				}
				fresh := make(map[int32]float64, len(want.Cells))
				for i, cell := range want.Cells {
					fresh[cell] = want.Scores[i]
				}
				for i, cell := range cont.Cells {
					if s, ok := fresh[cell]; !ok || s != cont.Scores[i] {
						t.Fatalf("%s: continued frontier cell %d score %v, fresh has %v (present %v)",
							label, cell, cont.Scores[i], s, ok)
					}
				}
				checked[mode]++
			}
		}
	}
	for _, mode := range modes {
		if checked[mode] == 0 {
			t.Fatalf("mode %v: no continuation was checked", mode)
		}
	}
}

// TestResumeIncFallsBackOnForeignPrior: a traced prior's crossing
// records index the layers of the checkpoint it was traced against, so
// it may only be continued against a checkpoint that shares them. Here
// the prior is traced against a plain checkpoint for o and resumed
// against a donor-derived checkpoint for o over the grown view — the
// handle an alignment evicted from the ranked checkpoint cache comes
// back as, whose layers order the same cells differently. The resume
// must run the full sweep and agree bit for bit with the same
// checkpoint resumed without a prior.
func TestResumeIncFallsBackOnForeignPrior(t *testing.T) {
	ctx := context.Background()
	in := automata.MustAlphabet("a", "b", "c")
	out := automata.MustAlphabet("x", "y")
	modes := []transducer.ConstraintMode{transducer.PrefixAndExtensions, transducer.ExtensionsOnly}
	checked, wrongPath := 0, 0
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(49000 + trial)))
		n := 6 + rng.Intn(6)
		full := markov.Random(in, n, 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		p := 2 + rng.Intn(n-3)
		short := full.Window(1, p)
		grown := short
		for i := p; i < n; i++ {
			var err error
			if grown, err = grown.Extended([][][]float64{full.TransAt(i)}); err != nil {
				t.Fatal(err)
			}
		}
		vs, vg := short.View(), grown.View()
		o, _, _, _, ok := kernel.ConstrainedViterbi(nt, vg, transducer.Unconstrained(), nil, nil)
		if !ok || len(o) < 2 {
			continue
		}
		for _, mode := range modes {
			for cut := 0; cut < len(o); cut++ {
				c := transducer.Constraint{Prefix: o[:cut], Mode: mode}
				label := fmt.Sprintf("trial %d p=%d/%d %v", trial, p, n, c)
				prior := &kernel.ResumeState{}
				if _, _, _, _, err := kernel.ResumeConstrainedIncCtx(ctx, nt, vs, kernel.NewLazyCheckpoint(nt, vs, o, nil), c, nil, prior, nil); err != nil {
					t.Fatal(err)
				}
				donor := kernel.NewLazyCheckpoint(nt, vg, o[:len(o)-1], nil)
				derived := kernel.NewLazyCheckpointFrom(nt, vg, o, donor)
				var got, want kernel.ResumeState
				go_, gn, gs, glp, gok, continued, err := kernel.ResumeEvidence(ctx, nt, vg, derived, c, nil, prior, &got, nil)
				if err != nil {
					t.Fatal(err)
				}
				wo, wn, ws, wlp, wok, _, err := kernel.ResumeEvidence(ctx, nt, vg, derived, c, nil, nil, &want, nil)
				if err != nil {
					t.Fatal(err)
				}
				if gok && (!c.Admits(go_) || !transducesTo(tr, gn, go_)) {
					t.Fatalf("%s: answer %v is not admitted or not an output of its evidence %v", label, go_, gn)
				}
				if gok != wok || glp != wlp || !automata.EqualStrings(go_, wo) || !automata.EqualStrings(gn, wn) || !slices.Equal(gs, ws) {
					t.Fatalf("%s: resume with a foreign prior (%v %v %v %v) != without (%v %v %v %v)",
						label, gok, go_, gn, glp, wok, wo, wn, wlp)
				}
				if continued {
					wrongPath++
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no foreign-prior resume was checked")
	}
	if wrongPath > 0 {
		t.Fatalf("%d of %d resumes continued a prior traced against another checkpoint's layers", wrongPath, checked)
	}
}

// transducesTo reports whether some run of tr over nodes emits o.
func transducesTo(tr *transducer.Transducer, nodes, o []automata.Symbol) bool {
	for _, oo := range tr.Transduce(nodes, 0) {
		if automata.EqualStrings(oo, o) {
			return true
		}
	}
	return false
}

// TestResumeIncChainedContinuations continues continuations: a capture
// over a prefix of the sequence, then at least three rounds of appending
// 1–3 positions through a NewExtendedLazyCheckpoint chain, each round
// resuming from the previous round's capture. Every round must continue
// and agree with a fresh capture over the same view — answer, evidence
// and score bit for bit, final frontier as a set — for both extension
// modes, including rounds whose prior has an empty final frontier. Some
// answer's best path must cross its constraint boundary before the
// capture two rounds back, so its traceback runs through at least two
// earlier captures.
func TestResumeIncChainedContinuations(t *testing.T) {
	ctx := context.Background()
	in := automata.MustAlphabet("a", "b", "c")
	out := automata.MustAlphabet("x", "y")
	modes := []transducer.ConstraintMode{transducer.PrefixAndExtensions, transducer.ExtensionsOnly}
	checked := map[transducer.ConstraintMode]int{}
	emptyPriors, deep := 0, 0
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(50000 + trial)))
		p := 2 + rng.Intn(4)
		steps := make([]int, 3+rng.Intn(2))
		n := p
		for i := range steps {
			steps[i] = 1 + rng.Intn(3)
			n += steps[i]
		}
		full := markov.Random(in, n, 0.7, rng)
		tr := randomVarNFATransducer(in, out, 1+rng.Intn(3), rng)
		nt := kernel.NewNFATables(tr)
		views := []*kernel.SeqView{full.Window(1, p).View()}
		seq, at := full.Window(1, p), p
		for _, d := range steps {
			for ; d > 0; d-- {
				var err error
				if seq, err = seq.Extended([][][]float64{full.TransAt(at)}); err != nil {
					t.Fatal(err)
				}
				at++
			}
			views = append(views, seq.View())
		}
		o, _, _, _, ok := kernel.ConstrainedViterbi(nt, views[0], transducer.Unconstrained(), nil, nil)
		if !ok {
			continue
		}
		for _, mode := range modes {
			for cut := 0; cut <= len(o); cut++ {
				c := transducer.Constraint{Prefix: o[:cut], Mode: mode}
				ck := kernel.NewLazyCheckpoint(nt, views[0], o, nil)
				prior := &kernel.ResumeState{}
				if _, _, _, _, err := kernel.ResumeConstrainedIncCtx(ctx, nt, views[0], ck, c, nil, prior, nil); err != nil {
					t.Fatal(err)
				}
				for k := 1; k < len(views); k++ {
					v := views[k]
					label := fmt.Sprintf("trial %d %v round %d (n=%d)", trial, c, k, v.N)
					ck = kernel.NewExtendedLazyCheckpoint(nt, v, ck)
					next, want := &kernel.ResumeState{}, &kernel.ResumeState{}
					co, cn, cs, clp, cok, continued, err := kernel.ResumeEvidence(ctx, nt, v, ck, c, nil, prior, next, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !continued {
						t.Fatalf("%s: did not continue the previous round's capture", label)
					}
					fo, fn, fs, flp, fok, _, err := kernel.ResumeEvidence(ctx, nt, v, kernel.NewLazyCheckpoint(nt, v, o, nil), c, nil, nil, want, nil)
					if err != nil {
						t.Fatal(err)
					}
					if cok != fok || clp != flp || !automata.EqualStrings(co, fo) || !automata.EqualStrings(cn, fn) || !slices.Equal(cs, fs) {
						t.Fatalf("%s: continued (%v %v %v %v) != fresh (%v %v %v %v)", label, cok, co, cn, clp, fok, fo, fn, flp)
					}
					sameFrontier(t, label, next, want)
					if len(prior.Cells) == 0 {
						emptyPriors++
					}
					if k >= 2 && cok {
						if x := crossingAt(tr, cn, cs, len(c.Prefix)); x >= 0 && x < views[k-2].N {
							deep++
						}
					}
					checked[mode]++
					prior = next
				}
			}
		}
	}
	for _, mode := range modes {
		if checked[mode] == 0 {
			t.Fatalf("mode %v: no chained continuation was checked", mode)
		}
	}
	if emptyPriors == 0 {
		t.Fatal("no round continued a prior with an empty final frontier")
	}
	if deep == 0 {
		t.Fatal("no answer's best path ran back through two earlier captures")
	}
	t.Logf("%d+%d rounds checked, %d from empty priors, %d paths through two or more earlier captures",
		checked[modes[0]], checked[modes[1]], emptyPriors, deep)
}

// sameFrontier fails unless two captured frontiers have the same length
// and the same cells with bit-identical scores, in any order.
func sameFrontier(t *testing.T, label string, got, want *kernel.ResumeState) {
	t.Helper()
	if got.N != want.N || len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: frontier N=%d |cells|=%d, fresh N=%d |cells|=%d", label, got.N, len(got.Cells), want.N, len(want.Cells))
	}
	fresh := make(map[int32]float64, len(want.Cells))
	for i, cell := range want.Cells {
		fresh[cell] = want.Scores[i]
	}
	for i, cell := range got.Cells {
		if s, ok := fresh[cell]; !ok || s != got.Scores[i] {
			t.Fatalf("%s: frontier cell %d score %v, fresh has %v (present %v)", label, cell, got.Scores[i], s, ok)
		}
	}
}

// crossingAt returns the position at which the run of tr over nodes
// through states first emits more than l output symbols — where a
// constrained answer's best path crosses its prefix boundary — or -1.
func crossingAt(tr *transducer.Transducer, nodes []automata.Symbol, states []int, l int) int {
	q, emitted := tr.Start(), 0
	for j, x := range nodes {
		if emitted += len(tr.Emit(q, x, states[j])); emitted > l {
			return j
		}
		q = states[j]
	}
	return -1
}
