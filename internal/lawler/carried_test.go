//go:build go1.24

package lawler_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"markovseq/internal/lawler"
	"markovseq/internal/transducer"
)

// TestUncarriedKeepsOnlyTheQueue: without Config.Carried an enumeration
// emits what a carried one emits but keeps no emitted or dead region, a
// resolved region drops its parent payload — so an answer's payload is
// collected once its last child has resolved — and Carry refuses it.
func TestUncarriedKeepsOnlyTheQueue(t *testing.T) {
	type payload struct{ name string }
	u := &universe{names: []string{"aa", "bb", "cc", "dd"}, scores: []float64{4, 3, 2, 1}}
	var emitted [2][]string
	for i, carried := range []bool{false, true} {
		var made []weak.Pointer[payload]
		cfg := lawler.Config[*payload]{
			Root: u.region(allOf(len(u.names))),
			Resolve: func(ctx context.Context, c transducer.Constraint, _ *payload, root bool, _ *payload) (*payload, float64, bool, error) {
				name, sc, ok, err := u.resolve(ctx, c, "", root, "")
				p := &payload{name}
				made = append(made, weak.Make(p))
				return p, sc, ok, err
			},
			// The remainder as singletons plus one always-empty region.
			Children: func(c transducer.Constraint, top **payload) []transducer.Constraint {
				out := []transducer.Constraint{u.region(nil)}
				for _, m := range u.members(c) {
					if m != u.index((*top).name) {
						out = append(out, u.region([]int{m}))
					}
				}
				return out
			},
			Carried: carried,
		}
		e := lawler.New(cfg)
		// After bb, every child of aa has resolved: the empty one dead,
		// bb emitted, cc and dd queued.
		for range 2 {
			top, _, ok := e.Next()
			if !ok {
				t.Fatal("universe ran out early")
			}
			emitted[i] = append(emitted[i], top.name)
		}
		runtime.GC()
		if alive := made[0].Value() != nil; alive != carried {
			t.Errorf("carried %v: aa's payload alive after its children resolved: %v", carried, alive)
		}
		gotEmitted, gotDead := lawler.Retained(e)
		if want := map[bool][2]int{false: {0, 0}, true: {2, 1}}[carried]; [2]int{gotEmitted, gotDead} != want {
			t.Errorf("carried %v: keeps %d emitted and %d dead regions, want %v", carried, gotEmitted, gotDead, want)
		}
		if ne := e.Carry(cfg, func(r *lawler.Region[*payload]) { r.Bound = 10 }); (ne != nil) != carried {
			t.Errorf("carried %v: Carry returned %v", carried, ne)
		}
	}
	if !reflect.DeepEqual(emitted[0], emitted[1]) {
		t.Errorf("uncarried drain %v, carried %v", emitted[0], emitted[1])
	}
}
