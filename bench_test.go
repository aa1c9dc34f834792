package msq

// Benchmark harness: one benchmark per experiment of DESIGN.md §3 (the
// regeneration of Table 2's complexity map). Absolute numbers depend on
// hardware; the experiments' claims are about *shape*: which parameters
// the running time is polynomial in, and which it is exponential in.
// cmd/msqexp prints the same series as human-readable tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"markovseq/internal/automata"
	"markovseq/internal/conf"
	"markovseq/internal/core"
	"markovseq/internal/enum"
	"markovseq/internal/markov"
	"markovseq/internal/ranked"
	"markovseq/internal/sproj"
	"markovseq/internal/transducer"
)

// benchNodes is the node alphabet used by the scaling benchmarks.
func benchNodes(k int) *automata.Alphabet {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	return automata.MustAlphabet(names...)
}

// benchDetTransducer builds a deterministic transducer with nStates
// states over in, emitting 0 or 1 symbols per transition.
func benchDetTransducer(in, out *automata.Alphabet, nStates int, rng *rand.Rand) *transducer.Transducer {
	t := transducer.New(in, out, nStates, 0)
	for q := 0; q < nStates; q++ {
		t.SetAccepting(q, true)
		for _, s := range in.Symbols() {
			var e []automata.Symbol
			if rng.Intn(2) == 0 {
				e = []automata.Symbol{automata.Symbol(rng.Intn(out.Size()))}
			}
			t.AddTransition(q, s, rng.Intn(nStates), e)
		}
	}
	return t
}

// benchAnswer finds some answer of t over m (the E_max top), so that the
// confidence benchmarks measure a nonzero-work path.
func benchAnswer(t *transducer.Transducer, m *markov.Sequence) []automata.Symbol {
	o, _, ok := ranked.TopEmax(t, m, transducer.Unconstrained())
	if !ok {
		panic("bench: no answer")
	}
	return o
}

// --- T2.a: deterministic confidence (Theorem 4.6), scaling in n ---

func BenchmarkConfidenceDet(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := benchNodes(4)
			out := automata.MustAlphabet("x", "y")
			m := markov.Random(in, n, 0.6, rng)
			t := benchDetTransducer(in, out, 4, rng)
			o := benchAnswer(t, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conf.Det(t, m, o)
			}
		})
	}
}

// --- T2.a (second bound): k-uniform deterministic fast path ---

func BenchmarkConfidenceDetUniform(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			in := benchNodes(4)
			out := automata.MustAlphabet("x", "y")
			t := transducer.New(in, out, 3, 0)
			for q := 0; q < 3; q++ {
				t.SetAccepting(q, true)
				for _, s := range in.Symbols() {
					t.AddTransition(q, s, rng.Intn(3),
						[]automata.Symbol{automata.Symbol(rng.Intn(out.Size()))})
				}
			}
			m := markov.Random(in, n, 0.6, rng)
			o := benchAnswer(t, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conf.DetUniform(t, m, o)
			}
		})
	}
}

// --- T2.b: nondeterministic uniform confidence (Theorem 4.8),
// exponential in |Q|, linear in n ---

func BenchmarkConfidenceUniformNFA(b *testing.B) {
	for _, q := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			// The worst-case family ("(q-1)-th symbol from the end is a"),
			// whose subset construction genuinely needs 2^{q-1} states.
			t, m, o := benchUniformNFAWorstCase(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conf.Uniform(t, m, o)
			}
		})
	}
}

// --- T2.c: the brute-force possible-worlds oracle, exponential in n
// (the empirical face of FP^#P-hardness) ---

func BenchmarkConfidenceBruteForce(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			in := benchNodes(3)
			out := automata.MustAlphabet("x", "y")
			m := markov.Random(in, n, 0.6, rng)
			t := benchDetTransducer(in, out, 3, rng)
			o := benchAnswer(t, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conf.BruteForce(t, m, o)
			}
		})
	}
}

// --- T2.d: s-projector confidence (Theorem 5.5), exponential only in
// |Q_E| ---

func benchSProjector(ab *automata.Alphabet, qb, qe int, rng *rand.Rand) *sproj.SProjector {
	mk := func(n int) *automata.DFA {
		d := automata.NewDFA(ab, n, 0)
		for q := 0; q < n; q++ {
			d.SetAccepting(q, rng.Intn(2) == 0)
			for _, s := range ab.Symbols() {
				d.SetTransition(q, s, rng.Intn(n))
			}
		}
		d.SetAccepting(0, true)
		return d
	}
	p, err := sproj.New(mk(qb), mk(3), mk(qe))
	if err != nil {
		panic(err)
	}
	return p
}

func BenchmarkConfidenceSProjQE(b *testing.B) {
	// Worst-case family: E = "length ≡ 0 (mod |Q_E|)", where the live
	// E-state subsets genuinely range over 2^{|Q_E|} values (see
	// cmd/msqexp's sproj-confidence experiment).
	ab := automata.MustAlphabet("a", "b", "c")
	for _, qe := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("QE=%d", qe), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			e := automata.NewDFA(ab, qe, 0)
			e.SetAccepting(0, true)
			for q := 0; q < qe; q++ {
				for _, s := range ab.Symbols() {
					e.SetTransition(q, s, (q+1)%qe)
				}
			}
			a := automata.NewDFA(ab, 3, 0)
			a.SetAccepting(1, true)
			for _, s := range ab.Symbols() {
				a.SetTransition(0, s, 1)
				a.SetTransition(1, s, 2)
				a.SetTransition(2, s, 2)
			}
			p, err := sproj.New(automata.Universal(ab), a, e)
			if err != nil {
				b.Fatal(err)
			}
			m := markov.Random(ab, 32, 0.9, rng)
			o := []automata.Symbol{0}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Confidence(m, o)
			}
		})
	}
}

func BenchmarkConfidenceSProjQB(b *testing.B) {
	ab := automata.MustAlphabet("a", "b", "c")
	for _, qb := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("QB=%d", qb), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			p := benchSProjector(ab, qb, 3, rng)
			m := markov.Random(ab, 32, 0.9, rng)
			o := []automata.Symbol{0, 1}
			if !p.A.Accepts(o) {
				o = nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Confidence(m, o)
			}
		})
	}
}

// --- T2.e: indexed s-projector confidence (Theorem 5.8), polynomial ---

func BenchmarkConfidenceIndexed(b *testing.B) {
	ab := automata.MustAlphabet("a", "b", "c")
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			p := benchSProjector(ab, 4, 4, rng)
			m := markov.Random(ab, n, 0.9, rng)
			o := []automata.Symbol{0, 1}
			if !p.A.Accepts(o) {
				o = nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.IndexedConfidence(m, o, n/2)
			}
		})
	}
}

// --- T2.f: unranked enumeration delay (Theorem 4.1) ---

func BenchmarkEnumUnranked(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			in := benchNodes(3)
			out := automata.MustAlphabet("x", "y")
			m := markov.Random(in, n, 0.7, rng)
			t := benchDetTransducer(in, out, 3, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := enum.NewEnumerator(t, m)
				for j := 0; j < 10; j++ {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// --- T2.g: ranked enumeration by E_max (Theorem 4.3) ---

func BenchmarkEnumEmax(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			in := benchNodes(3)
			out := automata.MustAlphabet("x", "y")
			m := markov.Random(in, n, 0.7, rng)
			t := benchDetTransducer(in, out, 3, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := ranked.NewEnumerator(t, m)
				for j := 0; j < 10; j++ {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// --- T2.i: indexed s-projector ranked enumeration (Theorem 5.7) ---

func BenchmarkEnumIndexed(b *testing.B) {
	ab := automata.MustAlphabet("a", "b", "c")
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			p := benchSProjector(ab, 3, 3, rng)
			m := markov.Random(ab, n, 0.8, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := p.EnumerateIndexed(m)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 10; j++ {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// --- T2.h: I_max enumeration for plain s-projectors (Theorem 5.2) ---

func BenchmarkEnumImax(b *testing.B) {
	ab := automata.MustAlphabet("a", "b", "c")
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			p := benchSProjector(ab, 3, 3, rng)
			m := markov.Random(ab, n, 0.8, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := p.EnumerateImax(m)
				for j := 0; j < 5; j++ {
					if _, ok := e.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// --- Top-answer primitive (the Viterbi-style optimizer) ---

func BenchmarkTopEmax(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(12))
			in := benchNodes(4)
			out := automata.MustAlphabet("x", "y")
			m := markov.Random(in, n, 0.6, rng)
			t := benchDetTransducer(in, out, 4, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ranked.TopEmax(t, m, transducer.Unconstrained())
			}
		})
	}
}

// --- End-to-end workloads: the motivating applications ---

func BenchmarkRFIDTopK(b *testing.B) {
	f := Hospital(4, 2)
	h := HospitalHMM(f, DefaultRFIDNoise)
	rng := rand.New(rand.NewSource(13))
	tr, err := SimulateRFID(h, 50, rng)
	if err != nil {
		b.Fatal(err)
	}
	q := PlaceTransducer(f, "lab")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopK(q, tr.Seq, 5)
	}
}

func BenchmarkTextExtraction(b *testing.B) {
	ab := TextAlphabet()
	rng := rand.New(rand.NewSource(14))
	doc := GenerateText(3, 6, 4, rng)
	m := NoisyText(ab, doc.Text, 0.05, rng)
	p := NameExtractor(ab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := p.EnumerateIndexed(m)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if _, ok := e.Next(); !ok {
				break
			}
		}
	}
}

// --- Ablation A2: lazy vs dense subset DP for Theorem 4.8 ---

func benchUniformNFAWorstCase(q int) (*transducer.Transducer, *markov.Sequence, []automata.Symbol) {
	rng := rand.New(rand.NewSource(21))
	in := automata.MustAlphabet("a", "b")
	out := automata.MustAlphabet("x")
	x := []automata.Symbol{out.MustSymbol("x")}
	t := transducer.New(in, out, q, 0)
	t.SetAccepting(q-1, true)
	sa, sb := in.MustSymbol("a"), in.MustSymbol("b")
	t.AddTransition(0, sa, 0, x)
	t.AddTransition(0, sb, 0, x)
	t.AddTransition(0, sa, 1, x)
	for st := 1; st+1 < q; st++ {
		t.AddTransition(st, sa, st+1, x)
		t.AddTransition(st, sb, st+1, x)
	}
	m := markov.Random(in, 24, 1.0, rng)
	o, _, ok := ranked.TopEmax(t, m, transducer.Unconstrained())
	if !ok {
		panic("bench: no answer")
	}
	return t, m, o
}

func BenchmarkUniformLazyVsDense(b *testing.B) {
	for _, q := range []int{4, 8, 12} {
		t, m, o := benchUniformNFAWorstCase(q)
		b.Run(fmt.Sprintf("lazy/Q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conf.UniformLazy(t, m, o)
			}
		})
		b.Run(fmt.Sprintf("dense/Q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conf.UniformDense(t, m, o)
			}
		})
	}
}

// --- Ablation A4-adjacent: Lawler vs dedup I_max enumeration ---

func BenchmarkImaxLawlerVsDedup(b *testing.B) {
	ab := automata.MustAlphabet("a", "b", "c")
	rng := rand.New(rand.NewSource(22))
	p := benchSProjector(ab, 3, 3, rng)
	m := markov.Random(ab, 16, 0.8, rng)
	b.Run("lawler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := p.EnumerateImax(m)
			for j := 0; j < 5; j++ {
				if _, ok := e.Next(); !ok {
					break
				}
			}
		}
	})
	b.Run("dedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := p.EnumerateImaxDedup(m)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 5; j++ {
				if _, ok := e.Next(); !ok {
					break
				}
			}
		}
	})
}

// --- Monte Carlo estimation for the hard class ---

func BenchmarkEstimateConfidence(b *testing.B) {
	nodes := automata.MustAlphabet("a", "b")
	outs := automata.MustAlphabet("x")
	rng := rand.New(rand.NewSource(23))
	m := markov.Random(nodes, 32, 0.8, rng)
	t := transducer.New(nodes, outs, 2, 0)
	t.SetAccepting(0, true)
	t.SetAccepting(1, true)
	x := []automata.Symbol{outs.MustSymbol("x")}
	for _, s := range nodes.Symbols() {
		t.AddTransition(0, s, 0, x)
		t.AddTransition(0, s, 1, nil)
		t.AddTransition(1, s, 0, x)
	}
	o := make([]automata.Symbol, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conf.Estimate(t, m, o, 1000, rng)
	}
}

// --- Serving layer: the Lahar store's prepared-engine cache ---

// laharBenchWorkload builds the RFID hospital workload the serving-layer
// benchmarks share: a 50-step cart stream and the "visits the lab" place
// query.
func laharBenchWorkload(b *testing.B, seed int64) (*markov.Sequence, *transducer.Transducer) {
	return laharBenchWorkloadN(b, seed, 50)
}

// laharBenchWorkloadN is laharBenchWorkload with a chosen stream length.
func laharBenchWorkloadN(b *testing.B, seed int64, n int) (*markov.Sequence, *transducer.Transducer) {
	b.Helper()
	f := Hospital(4, 2)
	h := HospitalHMM(f, DefaultRFIDNoise)
	tr, err := SimulateRFID(h, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	return tr.Seq, PlaceTransducer(f, "lab")
}

// BenchmarkLaharTopKCold measures the pre-cache per-request cost: every
// query classifies the transducer, builds a fresh engine, and re-runs
// the ranked enumeration from scratch.
func BenchmarkLaharTopKCold(b *testing.B) {
	m, q := laharBenchWorkload(b, 31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewTransducerEngine(q, m)
		if err != nil {
			b.Fatal(err)
		}
		if len(eng.TopK(5)) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkLaharTopKCached measures the served path: the DB's
// prepared-engine cache plus the engine's memoized answer prefix turn a
// repeated top-k into a map lookup and an O(k) copy.
func BenchmarkLaharTopKCached(b *testing.B) {
	m, q := laharBenchWorkload(b, 31)
	db := NewDB()
	if err := db.PutStream("cart", m); err != nil {
		b.Fatal(err)
	}
	db.RegisterTransducer("lab", q)
	if _, err := db.TopK("cart", "lab", 5); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.TopK("cart", "lab", 5)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkSlidingTopK measures one cold sliding sweep per iteration on
// the ISSUE workload: RFID hospital, 200-step stream, window 8, stride
// 1, k = 3 (193 windows). "sweep" is the amortized path (zero-copy
// windows, one ranked sweeper for every window), "reference" the
// bind-per-window baseline it must match bit for bit
// (TestSlidingSWAGMatchesReference), "sweep-parallel" the amortized path
// with window fan-out. PutStream before each iteration bumps the stream
// version, so no cached state survives between iterations and every
// sweep is evaluated cold.
func BenchmarkSlidingTopK(b *testing.B) {
	m, q := laharBenchWorkloadN(b, 32, 200)
	const window, stride, k = 8, 1, 3
	for _, mode := range []struct {
		name string
		opts []DBOption
	}{
		{"sweep", nil},
		{"sweep-parallel", []DBOption{WithParallelWindows(true)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db := NewDB(mode.opts...)
			db.RegisterTransducer("lab", q)
			windows := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := db.PutStream("cart", m); err != nil { // cold: new stream version
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := db.SlidingTopK("cart", "lab", window, stride, k)
				if err != nil {
					b.Fatal(err)
				}
				windows = len(res)
			}
			b.ReportMetric(float64(windows)*float64(b.N)/b.Elapsed().Seconds(), "windows/sec")
		})
	}
	b.Run("reference", func(b *testing.B) {
		pr := core.PrepareTransducer(q)
		windows := 0
		for i := 0; i < b.N; i++ {
			windows = referenceSlidingTopK(b, pr, m, window, stride, k)
		}
		b.ReportMetric(float64(windows)*float64(b.N)/b.Elapsed().Seconds(), "windows/sec")
	})
}

// referenceSlidingTopK is the bind-per-window reference of
// DB.SlidingTopK: each window's marginals deep-copied out of one forward
// pass (markov.Windower.Window) and ranked by a freshly bound engine. It
// returns the number of windows swept.
func referenceSlidingTopK(b *testing.B, pr *core.Prepared, m *markov.Sequence, window, stride, k int) int {
	wr := m.Windower()
	windows := 0
	for start := 1; start+window-1 <= m.Len(); start += stride {
		eng, err := pr.BindValidated(wr.Window(start, start+window-1))
		if err != nil {
			b.Fatal(err)
		}
		eng.TopK(k)
		windows++
	}
	return windows
}

// BenchmarkTopKAcrossParallel evaluates one query cold over a fleet of
// streams, varying the worker-pool size. PutStream before each
// iteration bumps every stream's version, dropping cached engines and
// memoized answers, so each iteration pays the full fan-out evaluation.
// Per-engine ranked enumeration is sequential, so the pool size is the
// only parallelism knob being measured. Note: on a single-CPU host the workers=4 and
// workers=max series cannot beat workers=1 — see EXPERIMENTS.md for the
// multi-core methodology.
func BenchmarkTopKAcrossParallel(b *testing.B) {
	const fleet = 16
	streams := make([]string, fleet)
	seqs := make([]*markov.Sequence, fleet)
	var q *transducer.Transducer
	for i := range streams {
		streams[i] = fmt.Sprintf("cart%d", i)
		seqs[i], q = laharBenchWorkload(b, int64(40+i))
	}
	for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS default
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			db := NewDB(WithDBWorkers(workers))
			db.RegisterTransducer("lab", q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, s := range streams { // cold: drop cached engines
					if err := db.PutStream(s, seqs[j]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := db.TopKAcross(streams, "lab", 5); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fleet)*float64(b.N)/b.Elapsed().Seconds(), "streams/sec")
		})
	}
}

// --- Append-only ingestion: events/sec with resident window state ---

// appendBenchWorkload splits a 264-step RFID trace into a 200-event
// prefix and the 64 events that grow it back to full length, so both
// append benchmarks replay the identical event stream against the
// standing ISSUE query (window 8, stride 1, k = 3).
func appendBenchWorkload(b *testing.B) (*markov.Sequence, []Event, *transducer.Transducer) {
	b.Helper()
	const prefix, epoch = 200, 64
	full, q := laharBenchWorkloadN(b, 33, prefix+epoch)
	events := make([]Event, 0, epoch)
	for l := prefix; l < prefix+epoch; l++ {
		events = append(events, Event(full.TransAt(l)))
	}
	return full.Window(1, prefix), events, q
}

// BenchmarkAppendEvents measures the incremental ingestion path: a
// standing WatchSlidingTopK subscription holds its window state
// resident, each AppendEvents grows its forward marginals by one row
// and ranks the one window the event completes, and the subscriber
// reads exactly one fresh window delta per event. Setup —
// storing the prefix, registering the watcher, draining its catch-up
// deltas — runs outside the timer; the timed region is the steady
// state: one event in, one ranked delta out.
func BenchmarkAppendEvents(b *testing.B) {
	prefix, events, q := appendBenchWorkload(b)
	const window, stride, k = 8, 1, 3
	catchup := (prefix.Len()-window)/stride + 1
	db := NewDB()
	db.RegisterTransducer("lab", q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := db.PutStream("cart", prefix); err != nil {
			b.Fatal(err)
		}
		sub, err := db.WatchSlidingTopK("cart", "lab", window, stride, k)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < catchup; j++ {
			<-sub.C()
		}
		b.StartTimer()
		for _, ev := range events {
			if _, err := db.AppendEvents("cart", []Event{ev}); err != nil {
				b.Fatal(err)
			}
			d, ok := <-sub.C()
			if !ok {
				b.Fatal(sub.Err())
			}
			if len(d.Top) == 0 {
				b.Fatal("empty window delta")
			}
		}
		b.StopTimer()
		sub.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkAppendRebuild is the pre-append-API baseline: the only way
// to grow a stream was to PutStream a wholesale replacement (bumping
// the version and invalidating every cached engine), and the only way
// to keep a standing sliding query current was to re-run it over the
// whole stream after each replace. The grown snapshots are pre-built
// outside the timer, so the timed region is purely the serving cost
// the append path eliminates: replace + cold re-evaluation per event.
func BenchmarkAppendRebuild(b *testing.B) {
	const prefix, epoch = 200, 64
	full, q := laharBenchWorkloadN(b, 33, prefix+epoch)
	const window, stride, k = 8, 1, 3
	grown := make([]*markov.Sequence, epoch)
	for j := range grown {
		grown[j] = full.Window(1, prefix+j+1)
	}
	db := NewDB()
	db.RegisterTransducer("lab", q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range grown {
			if err := db.PutStream("cart", m); err != nil {
				b.Fatal(err)
			}
			res, err := db.SlidingTopK("cart", "lab", window, stride, k)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) == 0 {
				b.Fatal("no windows")
			}
		}
	}
	b.ReportMetric(float64(epoch)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
