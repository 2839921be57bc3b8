package core

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

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
