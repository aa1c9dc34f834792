package main

import (
	"math/rand"

	"markovseq/internal/hmm"
	"markovseq/internal/markov"
	"markovseq/internal/rfid"
	"markovseq/internal/transducer"
)

// Generator keys, one per workload, so the workloads draw independent inputs
// from one seed.
const (
	keyAppend = iota + 1
	keyCold
	keyIngest
)

// inputs are the generated inputs of one seed: the RFID model of
// Hospital(4,2) and the place query triggered by the lab. Every sequence and
// reading a workload feeds the store comes from a generator keyed by the seed
// and the request's place in the script, so request i is the same on every
// run of a seed and in every pass of a traced run.
type inputs struct {
	seed  int64
	model *hmm.Model
	query *transducer.Transducer
}

func newInputs(seed int64) *inputs {
	f := rfid.Hospital(4, 2)
	return &inputs{seed: seed, model: rfid.BuildHMM(f, rfid.DefaultNoise), query: rfid.PlaceTransducer(f, "lab")}
}

// rng returns the generator for one key path.
func (in *inputs) rng(keys ...int64) *rand.Rand {
	h := uint64(in.seed)
	for _, k := range keys {
		h = splitmix(h ^ uint64(k))
	}
	return rand.New(rand.NewSource(int64(h)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// trace simulates n positions of the model and smooths the readings into a
// Markov sequence.
func (in *inputs) trace(n int, keys ...int64) (*markov.Sequence, error) {
	tr, err := rfid.Simulate(in.model, n, in.rng(keys...))
	if err != nil {
		return nil, err
	}
	return tr.Seq, nil
}

// readings draws n raw sensor readings, by name.
func (in *inputs) readings(n int, keys ...int64) []string {
	_, obs := in.model.Sample(n, in.rng(keys...))
	out := make([]string, n)
	for i, o := range obs {
		out[i] = in.model.Obs.Name(o)
	}
	return out
}

// prefix returns a fresh copy of m's first n positions: a sequence object no
// store has seen, so it pays for its own sparse view like a new stream does.
func prefix(m *markov.Sequence, n int) *markov.Sequence {
	p := markov.New(m.Nodes, n)
	copy(p.Initial, m.Initial)
	for i := range p.Trans {
		for r := range p.Trans[i] {
			copy(p.Trans[i][r], m.Trans[i][r])
		}
	}
	return p
}
