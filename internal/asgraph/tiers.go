package asgraph

import (
	"slices"
	"sort"
)

// Tier is the taxonomy of Table 1 in the paper. Every AS belongs to
// exactly one tier; assignment precedence follows the table top to bottom
// (Tier 1 before Tier 2 before ... before SMDG).
type Tier uint8

const (
	// TierT1: ASes with high customer degree and no providers (the
	// paper finds 13 on the UCLA graph).
	TierT1 Tier = iota
	// TierT2: the top ASes by customer degree that have providers
	// (100 in the paper).
	TierT2
	// TierT3: the next ASes by customer degree (100 in the paper).
	TierT3
	// TierCP: the designated content providers (17 in the paper;
	// Google, Akamai, Netflix, ...).
	TierCP
	// TierSmallCP: the top ASes by peering degree not already placed
	// (300 in the paper; "Small CPs").
	TierSmallCP
	// TierSMDG: remaining non-stub ASes ("small/medium degree").
	TierSMDG
	// TierStubX: ASes with peers but no customers.
	TierStubX
	// TierStub: ASes with no customers and no peers.
	TierStub

	// NumTiers is the number of tiers.
	NumTiers = int(TierStub) + 1
)

// String returns the tier label as printed in the paper's figures.
func (t Tier) String() string {
	switch t {
	case TierT1:
		return "T1"
	case TierT2:
		return "T2"
	case TierT3:
		return "T3"
	case TierCP:
		return "CP"
	case TierSmallCP:
		return "SMCP"
	case TierSMDG:
		return "SMDG"
	case TierStubX:
		return "STUB-X"
	case TierStub:
		return "STUB"
	default:
		return "?"
	}
}

// TierConfig controls taxonomy sizes; the zero value is replaced by the
// paper's Table 1 sizes via applyDefaults.
type TierConfig struct {
	NumTier2   int // default 100
	NumTier3   int // default 100
	NumSmallCP int // default 300
}

func (c *TierConfig) applyDefaults() {
	if c.NumTier2 == 0 {
		c.NumTier2 = 100
	}
	if c.NumTier3 == 0 {
		c.NumTier3 = 100
	}
	if c.NumSmallCP == 0 {
		c.NumSmallCP = 300
	}
}

// Tiers holds a completed tier classification.
type Tiers struct {
	Of      []Tier         // Of[v] is v's tier
	Members [NumTiers][]AS // members per tier, sorted by AS index
}

// TierOf returns v's tier.
func (t *Tiers) TierOf(v AS) Tier { return t.Of[v] }

// Classify assigns every AS in g to a tier per Table 1 of the paper.
// cps lists the designated content providers (the paper's 17 CP ASes);
// synthetic graphs carry this designation from the generator. cfg may be
// nil for the paper's sizes.
func Classify(g *Graph, cps []AS, cfg *TierConfig) *Tiers {
	var c TierConfig
	if cfg != nil {
		c = *cfg
	}
	c.applyDefaults()

	n := g.N()
	t := &Tiers{Of: make([]Tier, n)}
	assigned := make([]bool, n)

	place := func(v AS, tier Tier) {
		t.Of[v] = tier
		t.Members[tier] = append(t.Members[tier], v)
		assigned[v] = true
	}

	// Tier 1: provider-free ASes with at least one customer. Table 1
	// defines them as "ASes with high customer degree & no providers";
	// on both the UCLA graph and our generated graphs the provider-free
	// transit ASes are exactly the top of the customer-degree ranking.
	for v := AS(0); v < AS(n); v++ {
		if g.ProviderDegree(v) == 0 && g.CustomerDegree(v) > 0 {
			place(v, TierT1)
		}
	}

	// Tier 2 and Tier 3: top ASes by customer degree among those with
	// providers. Ties broken by AS index for determinism.
	byCustDeg := make([]AS, 0, n)
	for v := AS(0); v < AS(n); v++ {
		if !assigned[v] && g.CustomerDegree(v) > 0 && g.ProviderDegree(v) > 0 {
			byCustDeg = append(byCustDeg, v)
		}
	}
	sort.Slice(byCustDeg, func(i, j int) bool {
		di, dj := g.CustomerDegree(byCustDeg[i]), g.CustomerDegree(byCustDeg[j])
		if di != dj {
			return di > dj
		}
		return byCustDeg[i] < byCustDeg[j]
	})
	for i, v := range byCustDeg {
		switch {
		case i < c.NumTier2:
			place(v, TierT2)
		case i < c.NumTier2+c.NumTier3:
			place(v, TierT3)
		}
	}

	// Content providers: the explicit designation wins over everything
	// except T1/T2/T3 (matching the paper, whose CP list excludes the
	// large transit networks by construction).
	for _, v := range cps {
		if v >= 0 && int(v) < n && !assigned[v] {
			place(v, TierCP)
		}
	}

	// Small CPs: top remaining ASes by peering degree.
	byPeerDeg := make([]AS, 0, n)
	for v := AS(0); v < AS(n); v++ {
		if !assigned[v] && g.PeerDegree(v) > 0 {
			byPeerDeg = append(byPeerDeg, v)
		}
	}
	sort.Slice(byPeerDeg, func(i, j int) bool {
		di, dj := g.PeerDegree(byPeerDeg[i]), g.PeerDegree(byPeerDeg[j])
		if di != dj {
			return di > dj
		}
		return byPeerDeg[i] < byPeerDeg[j]
	})
	for i, v := range byPeerDeg {
		if i >= c.NumSmallCP {
			break
		}
		place(v, TierSmallCP)
	}

	// Remaining ASes: stubs, stubs-x, and SMDG.
	for v := AS(0); v < AS(n); v++ {
		if assigned[v] {
			continue
		}
		switch {
		case g.IsStub(v):
			place(v, TierStub)
		case g.IsStubX(v):
			place(v, TierStubX)
		default:
			place(v, TierSMDG)
		}
	}
	for i := range t.Members {
		slices.Sort(t.Members[i])
	}
	return t
}

// NonStubs returns all ASes with at least one customer, the attacker set
// M' of Section 5.2 ("non-stub attackers").
func NonStubs(g *Graph) []AS {
	var out []AS
	for v := AS(0); v < AS(g.N()); v++ {
		if !g.IsAnyStub(v) {
			out = append(out, v)
		}
	}
	return out
}

// StubCustomersOf returns the stub ASes (no customers) that have at least
// one provider in the given set; these are the "stubs of" a rollout step
// in the deployment scenarios of Section 5.2.1.
func StubCustomersOf(g *Graph, of *Set) []AS {
	var out []AS
	for v := AS(0); v < AS(g.N()); v++ {
		if !g.IsAnyStub(v) {
			continue
		}
		for _, p := range g.Providers(v) {
			if of.Has(p) {
				out = append(out, v)
				break
			}
		}
	}
	return out
}
