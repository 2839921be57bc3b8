package core

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// randomScenario draws a destination, attacker, and deployment.
func randomScenario(g *asgraph.Graph, rng *rand.Rand, secureProb float64) (d, m asgraph.AS, dep *Deployment) {
	d = asgraph.AS(rng.Intn(g.N()))
	for {
		m = asgraph.AS(rng.Intn(g.N()))
		if m != d {
			break
		}
	}
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v++ {
		if rng.Float64() < secureProb {
			full.Add(asgraph.AS(v))
		}
	}
	return d, m, &Deployment{Full: full}
}

func testGraph(seed int64) *asgraph.Graph {
	g, _ := topogen.MustGenerate(topogen.Params{N: 150, Seed: seed, TransitFrac: 0.25, NumCPs: 4, NumIXPs: 3})
	return g
}

// TestTheorem31NoDowngradeWhenSecurityFirst: in the security 1st model,
// every AS with a secure route under normal conditions that avoids the
// attacker keeps a secure route during the attack.
func TestTheorem31NoDowngradeWhenSecurityFirst(t *testing.T) {
	g := testGraph(3)
	rng := rand.New(rand.NewSource(31))
	e := NewEngine(g, policy.Sec1st, WithResolvedTiebreak())
	for trial := 0; trial < 40; trial++ {
		d, m, dep := randomScenario(g, rng, 0.4)
		normal := e.RunNormal(d, dep).Clone()
		attack := e.Run(d, m, dep)
		for v := asgraph.AS(0); int(v) < g.N(); v++ {
			if v == d || v == m || !normal.Secure[v] {
				continue
			}
			throughM := false
			for _, hop := range normal.Path(v) {
				if hop == m {
					throughM = true
					break
				}
			}
			if throughM {
				continue // the theorem's explicit carve-out
			}
			if !attack.Secure[v] {
				t.Fatalf("trial %d d=%d m=%d: AS %d downgraded under security 1st", trial, d, m, v)
			}
			if attack.Label[v] != LabelDest {
				t.Fatalf("trial %d d=%d m=%d: AS %d has secure route but is unhappy", trial, d, m, v)
			}
		}
	}
}

// TestTheorem61MonotonicitySec3rd: in the security 3rd model, growing
// the deployment never makes a happy AS unhappy.
func TestTheorem61MonotonicitySec3rd(t *testing.T) {
	g := testGraph(5)
	rng := rand.New(rand.NewSource(61))
	e := NewEngine(g, policy.Sec3rd, WithResolvedTiebreak())
	for trial := 0; trial < 40; trial++ {
		d, m, dep := randomScenario(g, rng, 0.3)
		small := e.Run(d, m, dep)
		happySmall := make([]bool, g.N())
		for v := range happySmall {
			happySmall[v] = small.Label[v] == LabelDest
		}
		// Grow S by adding each remaining AS with probability 1/2.
		big := dep.Full.Clone()
		for v := 0; v < g.N(); v++ {
			if !big.Has(asgraph.AS(v)) && rng.Intn(2) == 0 {
				big.Add(asgraph.AS(v))
			}
		}
		large := e.Run(d, m, &Deployment{Full: big})
		for v := asgraph.AS(0); int(v) < g.N(); v++ {
			if v == d || v == m {
				continue
			}
			if happySmall[v] && large.Label[v] != LabelDest {
				t.Fatalf("trial %d d=%d m=%d: AS %d lost happiness when S grew (sec 3rd)", trial, d, m, v)
			}
		}
	}
}

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

// TestBoundsBracketResolvedOutcome: for every pair, the three-valued
// bounds must bracket the deterministic-tiebreak outcome.
func TestBoundsBracketResolvedOutcome(t *testing.T) {
	g := testGraph(7)
	rng := rand.New(rand.NewSource(77))
	for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
		for _, model := range policy.Models {
			eb := NewEngineLP(g, model, lp)
			er := NewEngineLP(g, model, lp, WithResolvedTiebreak())
			for trial := 0; trial < 15; trial++ {
				d, m, dep := randomScenario(g, rng, 0.35)
				lo, hi := eb.Run(d, m, dep).HappyBounds()
				rl, rh := er.Run(d, m, dep).HappyBounds()
				if rl != rh {
					t.Fatalf("resolved engine produced ambiguous labels")
				}
				if rl < lo || rl > hi {
					t.Fatalf("%v/%v d=%d m=%d: resolved happy %d outside bounds [%d,%d]",
						model, lp, d, m, rl, lo, hi)
				}
			}
		}
	}
}

// TestPartitionsConsistentWithOutcomes: an immune AS must be happy and a
// doomed AS never happy under every deployment — checked against random
// deployments for both LP variants. This cross-checks the perceivable-
// route partitioner against the routing-outcome engine. On the 800-AS
// seed-5 graph, LP2 leaves sources unrouted at S = ∅ (and so under every
// S) toward the listed destinations: they are doomed, not immune.
func TestPartitionsConsistentWithOutcomes(t *testing.T) {
	g := testGraph(9)
	g800, _ := topogen.MustGenerate(topogen.Params{N: 800, Seed: 5})
	rng := rand.New(rand.NewSource(99))
	for _, in := range []struct {
		g     *asgraph.Graph
		lp    policy.LocalPref
		dests []asgraph.AS // nil: random destinations
	}{
		{g, policy.Standard, nil},
		{g, policy.LP2, nil},
		{g800, policy.LP2, []asgraph.AS{98, 119, 175, 413, 791}},
	} {
		g, lp := in.g, in.lp
		part := NewPartitioner(g, lp)
		engines := make([]*Engine, policy.NumModels)
		for _, model := range policy.Models {
			engines[model] = NewEngineLP(g, model, lp)
		}
		for trial := 0; trial < 10; trial++ {
			d, m, dep := randomScenario(g, rng, 0.4)
			if in.dests != nil {
				if d = in.dests[trial%len(in.dests)]; d == m {
					continue
				}
			}
			p := part.Run(d, m)
			for _, model := range policy.Models {
				o := engines[model].Run(d, m, dep)
				for v := asgraph.AS(0); int(v) < g.N(); v++ {
					if v == d || v == m {
						continue
					}
					switch p.Cat[model][v] {
					case CatImmune:
						if o.Label[v] != LabelDest {
							t.Fatalf("%v/%v n=%d d=%d m=%d: immune AS %d has label %v",
								model, lp, g.N(), d, m, v, o.Label[v])
						}
					case CatDoomed:
						if o.Label[v] == LabelDest || o.Label[v] == LabelAmbig {
							t.Fatalf("%v/%v n=%d d=%d m=%d: doomed AS %d has label %v",
								model, lp, g.N(), d, m, v, o.Label[v])
						}
					}
				}
			}
		}
	}
}

// TestSimplexStubsActAsSecureDestinations verifies the Section 5.3.2
// argument: a stub running simplex S*BGP still lets *other* ASes learn
// secure routes to it, while the stub itself routes insecurely.
func TestSimplexStubsActAsSecureDestinations(t *testing.T) {
	g := testGraph(13)
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
