package slo

// Workload fixtures: the stream/query populations a scenario drives.
//
// "rfid" is the serving shape the paper motivates — a small fleet of
// hospital RFID streams under the place-extraction query. "adversarial"
// is the hardness-generator shape — the Theorem 4.4 Mealy reduction,
// amplified: every candidate answer's evidence probability sits on a
// near-flat landscape, so the weight-pushed completion bounds cannot
// discriminate and ranked enumeration degrades toward its worst case.
// Both fixtures pre-generate an event reserve per stream so OpAppend
// never has to invent transition matrices under load.

import (
	"fmt"
	"math/rand"
	"sync"

	"markovseq/internal/automata"
	"markovseq/internal/hardness"
	"markovseq/internal/lahar"
	"markovseq/internal/markov"
	"markovseq/internal/rfid"
)

// Fixture is a populated store plus the knobs the driver needs to aim
// ops at it.
type Fixture struct {
	DB *lahar.DB
	// Streams are the stored stream names; Query the registered ranked
	// query they all answer.
	Streams []string
	Query   string
	// ConfTargets are answers (with their occurrence index, always 0 for
	// transducers) for OpConfidence, drawn from a reference TopK so the
	// confidence path computes real probabilities, not rejections.
	ConfTargets [][]automata.Symbol

	// replacements maps each stream to a validated same-shape sequence
	// used by PutStream faults (stampede version bumps, invalidation
	// storms).
	replacements map[string]*markov.Sequence

	mu      sync.Mutex
	reserve map[string][]lahar.Event
	next    map[string]int
}

// fixture sizes: streams long enough that a cold ranked drain is
// non-trivial work (and, for the adversarial family, longer than
// kernel.BoundsMinN so the pruning bounds are actually in play), short
// enough that a seconds-scale scenario completes thousands of ops.
const (
	rfidStreams   = 4
	rfidLen       = 120
	rfidReserve   = 240
	advVars       = 6
	advClauses    = 5
	advAmplify    = 10 // stream length = advVars × advAmplify = 60
	advReserveLen = 120
)

// NewFixture builds the workload fixture for the scenario and applies
// its store options. The per-query deadline is a bound on served
// traffic, so it is applied only once the fixture's own set-up drain
// (pickConfTargets) is done: a cold top-k on the adversarial workload
// can outlast a tight scenario deadline, and set-up must not fail, or
// leave deadline misses in the store's counters, because of it.
func NewFixture(sc *Scenario) (*Fixture, error) {
	opts := storeOpts(sc)
	var fx *Fixture
	var err error
	switch sc.Workload {
	case "rfid":
		fx, err = newRFIDFixture(sc, opts...)
	case "adversarial":
		fx, err = newAdversarialFixture(sc, opts...)
	default:
		return nil, fmt.Errorf("slo: unknown workload %q", sc.Workload)
	}
	if err != nil {
		return nil, err
	}
	if sc.Deadline > 0 {
		// Nothing else holds the store yet, so configuring it in place
		// is race-free.
		lahar.WithQueryDeadline(sc.Deadline.D())(fx.DB)
	}
	return fx, nil
}

// storeOpts are the scenario's construction-time store options; the
// deadline is applied after set-up (see NewFixture).
func storeOpts(sc *Scenario) []lahar.Option {
	var opts []lahar.Option
	if sc.MaxInFlight > 0 {
		opts = append(opts, lahar.WithMaxInFlight(sc.MaxInFlight))
	}
	if sc.Workers > 0 {
		opts = append(opts, lahar.WithWorkers(sc.Workers))
	}
	return opts
}

func newRFIDFixture(sc *Scenario, opts ...lahar.Option) (*Fixture, error) {
	db := lahar.New(opts...)
	f := rfid.Hospital(3, 2)
	h := rfid.BuildHMM(f, rfid.DefaultNoise)
	fx := &Fixture{
		DB:           db,
		Query:        "places",
		replacements: map[string]*markov.Sequence{},
		reserve:      map[string][]lahar.Event{},
		next:         map[string]int{},
	}
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	for i := 0; i < rfidStreams; i++ {
		name := fmt.Sprintf("s%d", i)
		trc, err := rfid.Simulate(h, rfidLen+rfidReserve, rng)
		if err != nil {
			return nil, fmt.Errorf("slo: rfid fixture: %w", err)
		}
		full := trc.Seq
		if err := db.PutStream(name, full.Window(1, rfidLen)); err != nil {
			return nil, err
		}
		fx.Streams = append(fx.Streams, name)
		fx.reserve[name] = eventsOf(full, rfidLen, rfidLen+rfidReserve)
		// The replacement sequence: an independent trace of the same
		// length, so a PutStream fault swaps content (cold engines) while
		// keeping every query well-formed.
		rep, err := rfid.Simulate(h, rfidLen, rng)
		if err != nil {
			return nil, fmt.Errorf("slo: rfid fixture: %w", err)
		}
		fx.replacements[name] = rep.Seq
	}
	db.RegisterTransducer(fx.Query, rfid.PlaceTransducer(f, "lab"))
	if err := fx.pickConfTargets(sc); err != nil {
		return nil, err
	}
	return fx, nil
}

func newAdversarialFixture(sc *Scenario, opts ...lahar.Option) (*Fixture, error) {
	db := lahar.New(opts...)
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	mi := hardness.NewMealyInstance(hardness.RandomMax3DNF(advVars, advClauses, rng))
	amp := mi.Amplify(advAmplify)
	fx := &Fixture{
		DB:           db,
		Query:        "mealy",
		replacements: map[string]*markov.Sequence{},
		reserve:      map[string][]lahar.Event{},
		next:         map[string]int{},
	}
	name := "adv0"
	if err := db.PutStream(name, amp); err != nil {
		return nil, err
	}
	fx.Streams = []string{name}
	// The append reserve replays the amplified chain's own transition
	// rows: any row-stochastic matrix extends a stream, and reusing the
	// instance's keeps appended positions on the reduction's support.
	var evs []lahar.Event
	for i := 1; i < amp.Len() && len(evs) < advReserveLen; i++ {
		evs = append(evs, lahar.Event(amp.TransAt(i)))
	}
	fx.reserve[name] = evs
	// Replacement: a re-amplified copy (fresh object, same distribution)
	// so stampedes/storms bump the version without changing hardness.
	fx.replacements[name] = mi.Amplify(advAmplify)
	db.RegisterTransducer(fx.Query, mi.T)
	if err := fx.pickConfTargets(sc); err != nil {
		return nil, err
	}
	return fx, nil
}

// eventsOf converts full's transition rows [from, to) into append
// events (appending TransAt(L) grows a length-L stream to L+1).
func eventsOf(full *markov.Sequence, from, to int) []lahar.Event {
	out := make([]lahar.Event, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, lahar.Event(full.TransAt(i)))
	}
	return out
}

// pickConfTargets drains a small reference top-k so OpConfidence
// queries score real answers.
func (fx *Fixture) pickConfTargets(sc *Scenario) error {
	res, err := fx.DB.TopK(fx.Streams[0], fx.Query, 3)
	if err != nil {
		return fmt.Errorf("slo: fixture conf targets: %w", err)
	}
	for _, r := range res {
		fx.ConfTargets = append(fx.ConfTargets, r.Output)
	}
	if len(fx.ConfTargets) == 0 {
		return fmt.Errorf("slo: fixture %s has no answers to target", sc.Workload)
	}
	return nil
}

// NextEvents pops a batch of n append events for the stream, cycling
// through the reserve (transition matrices replay soundly: any
// row-stochastic event extends a stream).
func (fx *Fixture) NextEvents(stream string, n int) []lahar.Event {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	res := fx.reserve[stream]
	if len(res) == 0 {
		return nil
	}
	out := make([]lahar.Event, 0, n)
	i := fx.next[stream]
	for len(out) < n {
		out = append(out, res[i%len(res)])
		i++
	}
	fx.next[stream] = i % len(res)
	return out
}

// Replacement returns the PutStream payload for a version-bump fault on
// the stream.
func (fx *Fixture) Replacement(stream string) *markov.Sequence {
	return fx.replacements[stream]
}
