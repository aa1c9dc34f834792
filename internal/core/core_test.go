package core

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/conf"
	"markovseq/internal/markov"
	"markovseq/internal/paperex"
	"markovseq/internal/regex"
	"markovseq/internal/sproj"
	"markovseq/internal/testutil"
	"markovseq/internal/transducer"
)

func TestClassification(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	m := paperex.Figure1(nodes)

	// Figure 2: deterministic (selective, non-uniform).
	e, err := NewTransducerEngine(paperex.Figure2(nodes, outs), m)
	if err != nil {
		t.Fatal(err)
	}
	if e.Plan().Class != ClassDeterministic {
		t.Fatalf("class = %v", e.Plan().Class)
	}
	if e.Plan().Hard {
		t.Fatal("deterministic class is not hard")
	}

	// A Mealy machine.
	mealy := transducer.New(nodes, outs, 1, 0)
	mealy.SetAccepting(0, true)
	one := []automata.Symbol{outs.MustSymbol("1")}
	for _, s := range nodes.Symbols() {
		mealy.AddTransition(0, s, 0, one)
	}
	e2, err := NewTransducerEngine(mealy, m)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Plan().Class != ClassMealy {
		t.Fatalf("class = %v", e2.Plan().Class)
	}

	// Uniform nondeterministic.
	und := transducer.New(nodes, outs, 2, 0)
	und.SetAccepting(0, true)
	und.SetAccepting(1, true)
	for _, s := range nodes.Symbols() {
		und.AddTransition(0, s, 0, one)
		und.AddTransition(0, s, 1, one)
		und.AddTransition(1, s, 0, one)
	}
	e3, _ := NewTransducerEngine(und, m)
	if e3.Plan().Class != ClassUniform {
		t.Fatalf("class = %v", e3.Plan().Class)
	}

	// General (hard).
	hard := transducer.New(nodes, outs, 2, 0)
	hard.SetAccepting(0, true)
	hard.SetAccepting(1, true)
	for _, s := range nodes.Symbols() {
		hard.AddTransition(0, s, 0, one)
		hard.AddTransition(0, s, 1, nil)
		hard.AddTransition(1, s, 0, one)
	}
	e4, _ := NewTransducerEngine(hard, m)
	if e4.Plan().Class != ClassGeneral || !e4.Plan().Hard {
		t.Fatalf("plan = %+v", e4.Plan())
	}
	if _, err := e4.Confidence(outs.MustParseString("1 1"), 0); err == nil {
		t.Fatal("hard class must refuse exact confidence")
	}
	// ...but estimation works.
	est := e4.EstimateConfidence(outs.MustParseString("1 1 1 1 1"), 2000, rand.New(rand.NewSource(1)))
	if est < 0 || est > 1 {
		t.Fatalf("estimate = %v", est)
	}
}

func TestExplainMentionsTheorems(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	m := paperex.Figure1(nodes)
	e, _ := NewTransducerEngine(paperex.Figure2(nodes, outs), m)
	ex := e.Explain()
	for _, want := range []string{"Theorem 4.6", "Theorem 4.3", "deterministic"} {
		if !strings.Contains(ex, want) {
			t.Fatalf("Explain missing %q:\n%s", want, ex)
		}
	}
	ab := automata.Chars("ab")
	p := sproj.Simple(regex.MustCompileDFA("a+", ab))
	mm := markov.Uniform(ab, 4)
	ei, _ := NewSProjectorEngine(p, mm, true)
	if !strings.Contains(ei.Explain(), "Theorem 5.7") {
		t.Fatalf("indexed Explain missing Theorem 5.7:\n%s", ei.Explain())
	}
	es, _ := NewSProjectorEngine(p, mm, false)
	if !strings.Contains(es.Explain(), "Theorem 5.5") {
		t.Fatalf("plain Explain missing Theorem 5.5:\n%s", es.Explain())
	}
}

func TestEngineEvaluation(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	m := paperex.Figure1(nodes)
	e, _ := NewTransducerEngine(paperex.Figure2(nodes, outs), m)

	c, err := e.Confidence(outs.MustParseString("1 2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-paperex.Conf12) > 1e-9 {
		t.Fatalf("conf = %v", c)
	}
	top := e.TopK(2)
	if len(top) != 2 || outs.FormatString(top[0].Output) != "12" || top[0].Kind != "E_max" {
		t.Fatalf("TopK = %v", top)
	}
	all := e.Enumerate(0)
	if len(all) != 6 {
		t.Fatalf("Enumerate = %d answers", len(all))
	}
	if !e.IsAnswer(outs.MustParseString("1 2")) || e.IsAnswer(outs.MustParseString("λ λ λ")) {
		t.Fatal("IsAnswer misbehaves")
	}
}

func TestSProjectorEngine(t *testing.T) {
	ab := automata.Chars("ab")
	p := sproj.Simple(regex.MustCompileDFA("a+", ab))
	m := markov.Homogeneous(ab, 4, []float64{0.5, 0.5}, [][]float64{{0.6, 0.4}, {0.3, 0.7}})

	idx, err := NewSProjectorEngine(p, m, true)
	if err != nil {
		t.Fatal(err)
	}
	top := idx.TopK(3)
	if len(top) == 0 || top[0].Kind != "confidence" || top[0].Index < 1 {
		t.Fatalf("indexed TopK = %v", top)
	}
	ci, err := idx.Confidence(top[0].Output, top[0].Index)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ci-top[0].Score) > 1e-9 {
		t.Fatalf("indexed confidence %v vs score %v", ci, top[0].Score)
	}
	if _, err := idx.Confidence(top[0].Output, 0); err == nil {
		t.Fatal("indexed engine requires an index")
	}

	plain, err := NewSProjectorEngine(p, m, false)
	if err != nil {
		t.Fatal(err)
	}
	ptop := plain.TopK(3)
	if len(ptop) == 0 || ptop[0].Kind != "I_max" {
		t.Fatalf("plain TopK = %v", ptop)
	}
	// Engine estimation also works for s-projectors.
	est := plain.EstimateConfidence(ptop[0].Output, 2000, rand.New(rand.NewSource(2)))
	c, _ := plain.Confidence(ptop[0].Output, 0)
	if math.Abs(est-c) > 0.1 {
		t.Fatalf("estimate %v far from exact %v", est, c)
	}
}

func TestEngineRejectsMismatches(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	other := automata.Chars("ab")
	m := markov.Uniform(other, 3)
	if _, err := NewTransducerEngine(paperex.Figure2(nodes, outs), m); err == nil {
		t.Fatal("alphabet size mismatch should be rejected")
	}
	bad := markov.New(nodes, 2) // invalid: all-zero rows
	if _, err := NewTransducerEngine(paperex.Figure2(nodes, outs), bad); err == nil {
		t.Fatal("invalid sequence should be rejected")
	}
}

func TestTopKWithConfidence(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	m := paperex.Figure1(nodes)
	e, _ := NewTransducerEngine(paperex.Figure2(nodes, outs), m)
	res := e.TopKWithConfidence(3)
	if len(res) != 3 {
		t.Fatalf("got %d", len(res))
	}
	if outs.FormatString(res[0].Output) != "12" || math.Abs(res[0].Conf-paperex.Conf12) > 1e-9 {
		t.Fatalf("top = %v conf %v", res[0].Output, res[0].Conf)
	}
	// The hard class leaves NaN.
	one := []automata.Symbol{outs.MustSymbol("1")}
	hard := transducer.New(nodes, outs, 2, 0)
	hard.SetAccepting(0, true)
	hard.SetAccepting(1, true)
	for _, s := range nodes.Symbols() {
		hard.AddTransition(0, s, 0, one)
		hard.AddTransition(0, s, 1, nil)
		hard.AddTransition(1, s, 0, one)
	}
	eh, _ := NewTransducerEngine(hard, m)
	hres := eh.TopKWithConfidence(1)
	if len(hres) != 1 || !math.IsNaN(hres[0].Conf) {
		t.Fatalf("hard class should leave NaN, got %v", hres)
	}
}

// TestPreparedBindMatchesNew: binding a prepared query gives the same
// plan and answers as direct construction, and a Prepared serves many
// sequences.
func TestPreparedBindMatchesNew(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	m := paperex.Figure1(nodes)
	q := paperex.Figure2(nodes, outs)

	pr := PrepareTransducer(q)
	if pr.Plan().Class != ClassDeterministic {
		t.Fatalf("prepared class = %v", pr.Plan().Class)
	}
	direct, err := NewTransducerEngine(q, m)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := pr.Bind(m)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Plan() != direct.Plan() {
		t.Fatalf("plans differ: %+v vs %+v", bound.Plan(), direct.Plan())
	}
	dt, bt := direct.TopK(3), bound.TopK(3)
	if len(dt) != len(bt) {
		t.Fatalf("answer counts differ: %d vs %d", len(dt), len(bt))
	}
	for i := range dt {
		if outs.FormatString(dt[i].Output) != outs.FormatString(bt[i].Output) ||
			math.Abs(dt[i].Score-bt[i].Score) > 1e-12 {
			t.Fatalf("answer %d differs: %v vs %v", i, dt[i], bt[i])
		}
	}
	// One Prepared binds windows of the sequence too.
	w, err := pr.BindValidated(m.Window(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.TopK(1)) == 0 {
		t.Fatal("window engine returned no answers")
	}
	// Alphabet mismatch is still caught at bind time.
	if _, err := pr.Bind(markov.Uniform(automata.Chars("ab"), 3)); err == nil {
		t.Fatal("bind should reject mismatched alphabets")
	}
}

// TestEngineTopKMemoized: growing k extends the memo consistently, and a
// repeated call returns the identical prefix.
func TestEngineTopKMemoized(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	m := paperex.Figure1(nodes)
	e, _ := NewTransducerEngine(paperex.Figure2(nodes, outs), m)
	fresh, _ := NewTransducerEngine(paperex.Figure2(nodes, outs), m)

	small := e.TopK(2)
	big := e.TopK(5)
	if len(small) != 2 || len(big) < len(small) {
		t.Fatalf("lens: %d then %d", len(small), len(big))
	}
	for i := range small {
		if outs.FormatString(small[i].Output) != outs.FormatString(big[i].Output) {
			t.Fatalf("memoized prefix changed at %d", i)
		}
	}
	want := fresh.TopK(5)
	if len(want) != len(big) {
		t.Fatalf("memoized enumeration diverged from fresh: %d vs %d", len(big), len(want))
	}
	for i := range want {
		if outs.FormatString(want[i].Output) != outs.FormatString(big[i].Output) ||
			math.Abs(want[i].Score-big[i].Score) > 1e-12 {
			t.Fatalf("answer %d differs from fresh engine", i)
		}
	}
	// Enumerate memoizes likewise: limit extension agrees with one-shot.
	e2, _ := NewTransducerEngine(paperex.Figure2(nodes, outs), m)
	part := e2.Enumerate(2)
	all := e2.Enumerate(0)
	oneShot, _ := NewTransducerEngine(paperex.Figure2(nodes, outs), m)
	wantAll := oneShot.Enumerate(0)
	if len(part) != 2 || len(all) != len(wantAll) {
		t.Fatalf("enumerate memo sizes: part=%d all=%d want=%d", len(part), len(all), len(wantAll))
	}
	for i := range wantAll {
		if outs.FormatString(all[i]) != outs.FormatString(wantAll[i]) {
			t.Fatalf("enumerate order changed at %d", i)
		}
	}
}

// TestEngineConcurrentReaders: one engine, many goroutines, all read
// modes at once (checked under -race).
func TestEngineConcurrentReaders(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	m := paperex.Figure1(nodes)
	e, _ := NewTransducerEngine(paperex.Figure2(nodes, outs), m)
	o := outs.MustParseString("1 2")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				switch (g + i) % 5 {
				case 0:
					if top := e.TopK(1 + i%4); len(top) == 0 {
						t.Error("TopK empty")
					}
				case 1:
					if len(e.Enumerate(3)) == 0 {
						t.Error("Enumerate empty")
					}
				case 2:
					if c, err := e.Confidence(o, 0); err != nil || c <= 0 {
						t.Errorf("Confidence = %v, %v", c, err)
					}
				case 3:
					if !e.IsAnswer(o) {
						t.Error("IsAnswer false")
					}
				default:
					e.EstimateConfidence(o, 10, rng)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDenseKernelsOptionAgrees checks the engine's sparse-kernel
// confidences against the dense reference DPs of package conf
// (conf.DetDense for the deterministic class, conf.UniformLazy for the
// uniform nondeterministic one), and that preparation compiled the
// kernel tables those confidences run on.
func TestDenseKernelsOptionAgrees(t *testing.T) {
	nodes := paperex.Nodes()
	outs := paperex.Outputs()
	m := paperex.Figure1(nodes)
	one := []automata.Symbol{outs.MustSymbol("1")}

	und := transducer.New(nodes, outs, 2, 0)
	und.SetAccepting(0, true)
	und.SetAccepting(1, true)
	for _, s := range nodes.Symbols() {
		und.AddTransition(0, s, 0, one)
		und.AddTransition(0, s, 1, one)
		und.AddTransition(1, s, 0, one)
	}

	for name, tc := range map[string]struct {
		tr    *transducer.Transducer
		dense func(*transducer.Transducer, *markov.Sequence, []automata.Symbol) float64
	}{
		"deterministic": {paperex.Figure2(nodes, outs), conf.DetDense},
		"uniform":       {und, conf.UniformLazy},
	} {
		sparseP := PrepareTransducer(tc.tr)
		if sparseP.dt == nil && sparseP.nt == nil {
			t.Fatalf("%s: preparation compiled no kernel tables", name)
		}
		sparse, err := sparseP.Bind(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sparse.TopK(4) {
			cs, err := sparse.Confidence(a.Output, a.Index)
			if err != nil {
				t.Fatal(err)
			}
			cd := tc.dense(tc.tr, m, a.Output)
			if math.Abs(cs-cd) > 1e-12 {
				t.Fatalf("%s: sparse %v vs dense %v on %v", name, cs, cd, a.Output)
			}
		}
	}
}
