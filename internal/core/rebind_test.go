package core

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// TestRebindMatchesFreshEngine is the differential contract of Rebind
// and SetModel on generated graph pairs of equal size: one long-lived
// engine hopping between the two graphs and round the three security
// models must agree, field for field, with an engine built fresh for the
// (graph, model) at hand — for a from-scratch RunAttack, for a RunDelta
// walk (the first hop runs one before any rebind, so the delta scratch
// and its degree table exist and must be rebuilt rather than created),
// and for the incrementally maintained HappyBounds. Stale degrees would
// move the delta-fallback decision, so the test also requires the two
// engines to price the graph alike and fall back equally often — on
// every hop, including those whose destination never joins the
// deployment: there every step the fresh engine takes is a security-free
// no-op, and it must have built its delta scratch and priced the graph
// all the same (RunDelta readies the scratch before it short-circuits).
func TestRebindMatchesFreshEngine(t *testing.T) {
	type pair struct {
		name string
		a, b *asgraph.Graph
	}
	ta, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 5})
	tb, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 6})
	pairs := []pair{{"topogen-400", ta, tb}}
	for seed := int64(1); seed <= 3; seed++ {
		pairs = append(pairs, pair{"random-60", randomGraph(seed, 60), randomGraph(seed+100, 60)})
	}
	for _, p := range pairs {
		n := p.a.N()
		for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
			rng := rand.New(rand.NewSource(10*int64(lp.K) + int64(n)))
			hopping := NewEngineLP(p.a, policy.Models[0], lp)
			graphs := []*asgraph.Graph{p.a, p.b}
			// 2 graphs × 3 models: twelve hops visit every combination
			// twice, the second time on cached stage plans.
			for hop := 0; hop < 12; hop++ {
				g, model := graphs[hop%2], policy.Models[hop%len(policy.Models)]
				if hop > 0 {
					if hop%3 == 0 {
						// An engine idling in a pool lets go of its graph
						// first; the hop must not notice.
						hopping.Rebind(nil)
					}
					hopping.Rebind(g)
					hopping.SetModel(model)
				}
				if hopping.Graph() != g || hopping.Model() != model {
					t.Fatalf("%s: engine reports the wrong graph or model after hop %d", p.name, hop)
				}
				fresh := NewEngineLP(g, model, lp)
				fallbacksBefore := hopping.counters.Fallbacks
				d := asgraph.AS(rng.Intn(n))
				m := asgraph.AS(rng.Intn(n))
				if m == d {
					m = asgraph.None
				}
				dep, _ := growDeployment(g, nil, n/20, rng)
				got, want := hopping.RunAttack(d, m, dep, nil), fresh.RunAttack(d, m, dep, nil)
				if !outcomesEqual(got, want) {
					t.Fatalf("%s %v %v hop %d: RunAttack on a rebound engine diverges from a fresh one", p.name, model, lp, hop)
				}
				for step, k := range []int{1, 3, n / 4, n} {
					next, added := growDeployment(g, dep, k, rng)
					got, want = hopping.RunDelta(got, added, nil, next, nil), fresh.RunDelta(want, added, nil, next, nil)
					if !outcomesEqual(got, want) {
						t.Fatalf("%s %v %v hop %d step %d: RunDelta on a rebound engine diverges from a fresh one", p.name, model, lp, hop, step)
					}
					glo, ghi := hopping.HappyBounds()
					wlo, whi := fresh.HappyBounds()
					if glo != wlo || ghi != whi {
						t.Fatalf("%s %v %v hop %d step %d: HappyBounds (%d,%d) on a rebound engine, (%d,%d) fresh", p.name, model, lp, hop, step, glo, ghi, wlo, whi)
					}
					dep = next
				}
				if hopping.totalVol != fresh.totalVol {
					t.Fatalf("%s hop %d: rebound engine prices the graph at volume %d, a fresh one at %d", p.name, hop, hopping.totalVol, fresh.totalVol)
				}
				if got := hopping.counters.Fallbacks - fallbacksBefore; got != fresh.counters.Fallbacks {
					t.Fatalf("%s hop %d: %d delta fallbacks on the rebound engine, %d fresh", p.name, hop, got, fresh.counters.Fallbacks)
				}
			}
		}
	}
}

// TestRebindDifferentSizePanics: the slabs are sized by n, so a graph of
// another size is a caller bug the engine refuses loudly.
func TestRebindDifferentSizePanics(t *testing.T) {
	e := NewEngine(lineGraph(8), policy.Sec1st)
	defer func() {
		if recover() == nil {
			t.Fatal("Rebind to a graph of a different size did not panic")
		}
	}()
	e.Rebind(lineGraph(9))
}
