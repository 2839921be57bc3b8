package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// randomGraph builds an arbitrary (possibly disconnected, peer-free,
// or stub-free) valid AS graph from a seed: providers always have lower
// indices, so the hierarchy is acyclic by construction. Unlike topogen
// it makes no attempt to look like the Internet — that is the point.
func randomGraph(seed int64, n int) *asgraph.Graph {
	return randomGraphFrom(n, rand.New(rand.NewSource(seed)).Intn)
}

// randomGraphFrom is randomGraph over an arbitrary draw source: pick(k)
// returns a choice in [0, k). FuzzRunDelta draws from fuzzer bytes, so
// a short byte string spells out a hand-built hierarchy.
func randomGraphFrom(n int, pick func(int) int) *asgraph.Graph {
	b := asgraph.NewBuilder(n)
	type pair struct{ a, b asgraph.AS }
	used := map[pair]bool{}
	add := func(x, y asgraph.AS, peer bool) {
		k := pair{x, y}
		if x > y {
			k = pair{y, x}
		}
		if x == y || used[k] {
			return
		}
		used[k] = true
		if peer {
			b.AddPeer(x, y)
		} else {
			b.AddProviderCustomer(x, y)
		}
	}
	for v := 1; v < n; v++ {
		for k := pick(3); k > 0; k-- {
			add(asgraph.AS(pick(v)), asgraph.AS(v), false)
		}
	}
	for e := pick(2 * n); e > 0; e-- {
		add(asgraph.AS(pick(n)), asgraph.AS(pick(n)), true)
	}
	return b.MustBuild()
}

// TestQuickEngineInvariants drives the engine and partitioner over
// arbitrary graphs, deployments, and pairs, checking the structural
// invariants that must hold on *any* input:
//
//   - the three-valued bounds bracket the resolved outcome;
//   - immune sources are happy (under security 1st, never unhappy) and
//     doomed sources never happy under the random deployment;
//   - secure routes exist only at full adopters and always lead to the
//     destination;
//   - route lengths decrease along Next pointers toward an origin.
func TestQuickEngineInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		g := randomGraph(seed, n)
		d := asgraph.AS(rng.Intn(n))
		m := asgraph.AS(rng.Intn(n))
		if m == d {
			m = (m + 1) % asgraph.AS(n)
		}
		full := asgraph.NewSet(n)
		simplex := asgraph.NewSet(n)
		for v := 0; v < n; v++ {
			switch rng.Intn(4) {
			case 0, 1:
				full.Add(asgraph.AS(v))
			case 2:
				if g.IsAnyStub(asgraph.AS(v)) {
					simplex.Add(asgraph.AS(v))
				}
			}
		}
		dep := &Deployment{Full: full, Simplex: simplex}

		part := NewPartitioner(g, policy.Standard).Run(d, m)
		for _, model := range policy.Models {
			eb := NewEngine(g, model)
			bounds := eb.Run(d, m, dep).Clone()
			lo, hi := bounds.HappyBounds()
			er := NewEngine(g, model, WithResolvedTiebreak())
			resolved := er.Run(d, m, dep)
			rl, _ := resolved.HappyBounds()
			if rl < lo || rl > hi {
				t.Logf("seed %d %v: resolved %d outside [%d,%d]", seed, model, rl, lo, hi)
				return false
			}
			for v := asgraph.AS(0); int(v) < n; v++ {
				if v == d || v == m {
					continue
				}
				switch part.Cat[model][v] {
				case CatImmune:
					// Under security 1st an immune AS may still lose
					// every route: a secure AS that takes a secure peer
					// route withholds the customer route its providers
					// relied on. It never reaches the attacker, though.
					if bounds.Label[v] != LabelDest && (model != policy.Sec1st || bounds.Label[v] != LabelNone) {
						t.Logf("seed %d %v: immune AS %d labelled %v", seed, model, v, bounds.Label[v])
						return false
					}
				case CatDoomed:
					// On these adversarial graphs a doomed AS may end
					// up with no route at all (its paths toward the
					// attacker can be withheld by upstream choices);
					// it must simply never be happy.
					if bounds.Label[v] == LabelDest || bounds.Label[v] == LabelAmbig {
						t.Logf("seed %d %v: doomed AS %d labelled %v", seed, model, v, bounds.Label[v])
						return false
					}
				}
				if bounds.Secure[v] {
					if !dep.FullSecure(v) || bounds.Label[v] != LabelDest {
						t.Logf("seed %d %v: bogus secure flag at AS %d", seed, model, v)
						return false
					}
				}
				if next := bounds.Next[v]; next != asgraph.None {
					if bounds.Len[v] != bounds.Len[next]+1 {
						t.Logf("seed %d %v: length gap at AS %d", seed, model, v)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFullDeploymentSec1 checks a sharp corollary linking the
// engine to the partitioner: with *everyone* secure and security 1st,
// a source is happy exactly when it is not doomed — i.e. when some
// valley-free route to the destination avoids the attacker.
func TestQuickFullDeploymentSec1(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x5bcb))
		n := 8 + rng.Intn(40)
		g := randomGraph(seed, n)
		d := asgraph.AS(rng.Intn(n))
		m := asgraph.AS(rng.Intn(n))
		if m == d {
			m = (m + 1) % asgraph.AS(n)
		}
		all := asgraph.NewSet(n)
		for v := 0; v < n; v++ {
			all.Add(asgraph.AS(v))
		}
		o := NewEngine(g, policy.Sec1st).Run(d, m, &Deployment{Full: all})
		part := NewPartitioner(g, policy.Standard).Run(d, m)
		for v := asgraph.AS(0); int(v) < n; v++ {
			if v == d || v == m {
				continue
			}
			happy := o.Label[v] == LabelDest
			doomed := part.Cat[policy.Sec1st][v] == CatDoomed
			unrouted := o.Label[v] == LabelNone
			if doomed && happy {
				t.Logf("seed %d: doomed AS %d happy under full deployment", seed, v)
				return false
			}
			if !doomed && !happy && !unrouted {
				t.Logf("seed %d: AS %d not doomed yet unhappy under full sec-1st deployment (label %v)", seed, v, o.Label[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNormalConditionsReachEveryone: without an attacker, every AS
// with any valley-free route to the destination gets a route, and no
// label is ever "unhappy".
func TestQuickNormalConditionsReachEveryone(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x77aa))
		n := 8 + rng.Intn(40)
		g := randomGraph(seed, n)
		d := asgraph.AS(rng.Intn(n))
		for _, model := range policy.Models {
			o := NewEngine(g, model).RunNormal(d, nil)
			for v := asgraph.AS(0); int(v) < n; v++ {
				if v == d {
					continue
				}
				if o.Label[v] == LabelAttacker || o.Label[v] == LabelAmbig {
					t.Logf("seed %d: label %v without an attacker", seed, o.Label[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickLP2AgreesWithStandardOnShortGraphs: on graphs where every
// route is a single hop, LPk and standard LP must coincide (the
// interleaving only reorders longer routes).
func TestQuickLP2AgreesWithStandardOnShortGraphs(t *testing.T) {
	// Star topology: d in the middle, everyone else a direct customer,
	// peer, or provider.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		b := asgraph.NewBuilder(n)
		for v := 1; v < n; v++ {
			switch rng.Intn(3) {
			case 0:
				b.AddProviderCustomer(0, asgraph.AS(v))
			case 1:
				b.AddProviderCustomer(asgraph.AS(v), 0)
			default:
				b.AddPeer(0, asgraph.AS(v))
			}
		}
		g := b.MustBuild()
		for _, model := range policy.Models {
			std := NewEngineLP(g, model, policy.Standard).RunNormal(0, nil).Clone()
			lp2 := NewEngineLP(g, model, policy.LP2).RunNormal(0, nil)
			for v := 1; v < n; v++ {
				if std.Class[v] != lp2.Class[v] || std.Len[v] != lp2.Len[v] {
					t.Fatalf("seed %d %v: LP2 diverges from standard on 1-hop routes at AS %d", seed, model, v)
				}
			}
		}
	}
}
