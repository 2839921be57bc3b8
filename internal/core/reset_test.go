package core

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// outcomesEqual compares every field of two outcomes.
func outcomesEqual(a, b *Outcome) bool {
	if a.Dst != b.Dst || a.Attacker != b.Attacker {
		return false
	}
	for v := range a.Class {
		if a.Class[v] != b.Class[v] || a.Len[v] != b.Len[v] ||
			a.Secure[v] != b.Secure[v] || a.Label[v] != b.Label[v] ||
			a.Next[v] != b.Next[v] {
			return false
		}
	}
	return true
}

// forestGraph builds clusters disconnected provider trees of size ASes
// each. A run stays inside one tree, so consecutive runs fix far fewer
// than n/4 ASes — the regime where rollback restores entry by entry
// instead of wiping.
func forestGraph(clusters, size int) *asgraph.Graph {
	b := asgraph.NewBuilder(clusters * size)
	for c := 0; c < clusters; c++ {
		base := asgraph.AS(c * size)
		for i := 1; i < size; i++ {
			b.AddProviderCustomer(base+asgraph.AS((i-1)/2), base+asgraph.AS(i))
		}
	}
	return b.MustBuild()
}

// TestEpochResetMatchesFullClear drives one long-lived engine through a
// long sequence of runs — varying destination, attacker, and deployment
// so consecutive runs touch different subsets — and requires, after
// every run, the exact outcome of a fresh engine built for that run
// alone (construction wipes all n entries, so the fresh engine is the
// full-clear reference and needs no knob). Any state leaking across
// runs through either rollback branch would surface as a divergence;
// the connected topologies take the sequential wipe, the disconnected
// forest the per-entry restore, and the test insists both were taken.
func TestEpochResetMatchesFullClear(t *testing.T) {
	graphs := map[string]*asgraph.Graph{}
	g, _ := topogen.MustGenerate(topogen.Params{N: 600, Seed: 3})
	graphs["topogen-600"] = g
	graphs["forest"] = forestGraph(20, 15)
	wipes, restores := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		graphs["random"] = randomGraph(seed, 50)
		rng := rand.New(rand.NewSource(seed))
		for name, g := range graphs {
			n := g.N()
			deps := []*Deployment{nil}
			for k := 0; k < 2; k++ {
				full := asgraph.NewSet(n)
				simplex := asgraph.NewSet(n)
				for v := 0; v < n; v++ {
					switch rng.Intn(3 + k) {
					case 0:
						full.Add(asgraph.AS(v))
					case 1:
						if g.IsAnyStub(asgraph.AS(v)) {
							simplex.Add(asgraph.AS(v))
						}
					}
				}
				deps = append(deps, &Deployment{Full: full, Simplex: simplex})
			}
			for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
				for _, model := range policy.Models {
					longLived := NewEngineLP(g, model, lp)
					for run := 0; run < 12; run++ {
						d := asgraph.AS(rng.Intn(n))
						m := asgraph.AS(rng.Intn(n))
						if m == d {
							m = asgraph.None // normal conditions
						}
						dep := deps[rng.Intn(len(deps))]
						if run > 0 {
							if 4*len(longLived.fixedList) >= n {
								wipes++
							} else {
								restores++
							}
						}
						got := longLived.Run(d, m, dep)
						want := NewEngineLP(g, model, lp).Run(d, m, dep)
						if !outcomesEqual(got, want) {
							t.Fatalf("%s seed %d %v %v run %d (d=%d m=%d): long-lived engine diverges from a fresh engine",
								name, seed, model, lp, run, d, m)
						}
					}
				}
			}
		}
	}
	if wipes == 0 || restores == 0 {
		t.Errorf("rollback took the sequential wipe %d times and the per-entry restore %d times; the sequences must exercise both", wipes, restores)
	}
}

// TestEpochResetResolvedMode repeats the fresh-engine equivalence check
// in resolved-tiebreak mode, which exercises the label-of-lowest-next
// bookkeeping in the offer accumulators.
func TestEpochResetResolvedMode(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 9})
	n := g.N()
	rng := rand.New(rand.NewSource(7))
	full := asgraph.NewSet(n)
	for v := 0; v < n; v += 2 {
		full.Add(asgraph.AS(v))
	}
	dep := &Deployment{Full: full}
	for _, model := range policy.Models {
		longLived := NewEngine(g, model, WithResolvedTiebreak())
		for run := 0; run < 20; run++ {
			d := asgraph.AS(rng.Intn(n))
			m := asgraph.AS(rng.Intn(n))
			if m == d {
				m = asgraph.None
			}
			got := longLived.Run(d, m, dep)
			want := NewEngine(g, model, WithResolvedTiebreak()).Run(d, m, dep)
			if !outcomesEqual(got, want) {
				t.Fatalf("%v run %d (d=%d m=%d): resolved-mode divergence", model, run, d, m)
			}
		}
	}
}
