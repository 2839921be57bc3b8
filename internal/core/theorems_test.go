package core

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// TestSec2ndAndSec1stAreNotMonotonic documents the flip side of
// Theorem 6.1 using the paper's own counterexamples: collateral damage
// exists, so the test would be wrong if it asserted monotonicity for the
// other two models. (The fixtures prove non-monotonicity directly in
// TestFig14CollateralDamage and TestFig17CollateralDamageSec1.)
func TestSec2ndAndSec1stAreNotMonotonic(t *testing.T) {
	f14 := newFig14damage()
	e := NewEngine(f14.g, policy.Sec2nd)
	before := e.Run(f14.d, f14.m, nil).Clone()
	after := e.Run(f14.d, f14.m, f14.after)
	if !(before.Label[f14.s] == LabelDest && after.Label[f14.s] == LabelAttacker) {
		t.Error("fig14 fixture no longer demonstrates sec-2nd non-monotonicity")
	}
	f17 := newFig17damage()
	e1 := NewEngine(f17.g, policy.Sec1st)
	before1 := e1.Run(f17.d, f17.m, nil).Clone()
	after1 := e1.Run(f17.d, f17.m, f17.after)
	if !(before1.Label[f17.as4805] == LabelDest && after1.Label[f17.as4805] == LabelAttacker) {
		t.Error("fig17 fixture no longer demonstrates sec-1st non-monotonicity")
	}
}

// TestPartitionsConsistentWithOutcomes: an immune AS is happy and a
// doomed AS never happy, under every deployment — checked by the walk
// for both LP variants, and here on the 800-AS seed-5 graph, where LP2
// leaves sources unrouted at S = ∅ (and so under every S) toward the
// listed destinations: they are doomed, not immune.
func TestPartitionsConsistentWithOutcomes(t *testing.T) {
	requireWalk(t, 20000, "partition")
	g, _ := topogen.MustGenerate(topogen.Params{N: 800, Seed: 5})
	n := g.N()
	rng := rand.New(rand.NewSource(99))
	part := NewPartitioner(g, policy.LP2)
	for _, d := range []asgraph.AS{98, 119, 175, 413, 791} {
		m := asgraph.AS((int(d) + 1 + rng.Intn(n-1)) % n)
		dep := &Deployment{Full: asgraph.NewSet(n)}
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.4 {
				dep.Full.Add(asgraph.AS(v))
			}
		}
		p := part.Run(d, m)
		for _, model := range policy.Models {
			if v := partitionViolation(p, model, NewEngineLP(g, model, policy.LP2).Run(d, m, dep), false); v != asgraph.None {
				t.Fatalf("%v d=%d m=%d: AS%d labelled against its category", model, d, m, v)
			}
		}
	}
}

// TestSimplexStubsActAsSecureDestinations verifies the Section 5.3.2
// argument: a stub running simplex S*BGP still lets *other* ASes learn
// secure routes to it, while the stub itself routes insecurely.
func TestSimplexStubsActAsSecureDestinations(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 150, Seed: 13, TransitFrac: 0.25, NumCPs: 4, NumIXPs: 3})
	// Find a stub with a provider, secure the provider chain fully and
	// the stub in simplex mode.
	var stub asgraph.AS = asgraph.None
	for v := asgraph.AS(0); int(v) < g.N(); v++ {
		if g.IsAnyStub(v) && g.ProviderDegree(v) > 0 {
			stub = v
			break
		}
	}
	if stub == asgraph.None {
		t.Fatal("no stub found")
	}
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v++ {
		if !g.IsAnyStub(asgraph.AS(v)) {
			full.Add(asgraph.AS(v))
		}
	}
	dep := &Deployment{Full: full, Simplex: asgraph.SetOf(g.N(), stub)}
	o := NewEngine(g, policy.Sec1st).RunNormal(stub, dep)
	secure := 0
	for v := asgraph.AS(0); int(v) < g.N(); v++ {
		if v != stub && o.Secure[v] {
			secure++
		}
	}
	if secure == 0 {
		t.Error("no AS learned a secure route to the simplex stub destination")
	}
	// As a source, the simplex stub never has secure routes.
	other := asgraph.AS(0)
	if other == stub {
		other = 1
	}
	o2 := NewEngine(g, policy.Sec1st).RunNormal(other, dep)
	if o2.Secure[stub] {
		t.Error("simplex stub validated a route it cannot validate")
	}
}
