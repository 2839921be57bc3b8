// Package topogen generates synthetic Internet-like AS-level topologies.
//
// It substitutes for the UCLA Cyclops graph of 24 September 2012 used in
// the paper (39,056 ASes; 73,442 customer-provider links; 62,129 peer
// links), which is no longer distributed. The generator reproduces the
// structural properties the paper's results depend on:
//
//   - a clique of provider-free Tier 1 ASes at the top of an acyclic
//     customer→provider hierarchy;
//   - heavy-tailed customer degrees produced by preferential attachment,
//     so a "Tier 2" of large transit providers emerges;
//   - roughly 85% of ASes are stubs (no customers), multihomed to ~1.9
//     providers on average, matching the UCLA edge/vertex ratios;
//   - peer edges concentrated among transit ASes, with a peer/customer
//     edge ratio near the UCLA graph's 0.85;
//   - a set of designated content-provider ASes with low customer degree
//     and very high peering degree (the paper's 17 CPs);
//   - synthetic IXP membership lists for the Appendix J augmentation.
//
// Generation is fully deterministic given Params.Seed.
package topogen

import (
	"fmt"
	"math/rand"

	"sbgp/internal/asgraph"
)

// Params controls generation. Zero fields take the documented defaults.
type Params struct {
	// N is the total number of ASes (default 4000).
	N int
	// Seed selects the deterministic random stream. A zero Seed
	// defaults to 1 unless SeedSet is true — set SeedSet whenever the
	// seed comes from user input, so that seed 0 is an honest, distinct
	// stream rather than a silent alias of seed 1.
	Seed int64
	// SeedSet marks Seed as explicit: Seed == 0 is then used as-is.
	SeedSet bool
	// NumTier1 is the size of the provider-free top clique (default 13,
	// matching Table 1).
	NumTier1 int
	// TransitFrac is the fraction of ASes with customers (default 0.155,
	// matching the 6178/39056 non-stub share reported in Section 5.2.4).
	TransitFrac float64
	// MeanProviders is the mean number of providers per non-Tier-1 AS
	// (default 1.9, matching the UCLA c2p edge/vertex ratio).
	MeanProviders float64
	// PeerRatio is the target ratio of peer edges to customer-provider
	// edges (default 0.85, matching 62129/73442).
	PeerRatio float64
	// NumCPs is the number of designated content providers (default 17).
	NumCPs int
	// CPPeerDegree is the mean peering degree of a content provider
	// (default 40; CPs are the most peered ASes, per Section 2.2).
	CPPeerDegree int
	// StubPeerFrac is the fraction of stubs given peer edges, producing
	// the "Stubs-x" tier (default 0.05).
	StubPeerFrac float64
	// NumIXPs is the number of synthetic IXPs (default N/130, min 3).
	NumIXPs int
	// IXPMeanSize is the mean IXP membership size (default 24).
	IXPMeanSize int
}

func (p *Params) applyDefaults() {
	if p.N == 0 {
		p.N = 4000
	}
	if p.Seed == 0 && !p.SeedSet {
		p.Seed = 1
	}
	if p.NumTier1 == 0 {
		p.NumTier1 = 13
	}
	if p.TransitFrac == 0 {
		p.TransitFrac = 0.155
	}
	if p.MeanProviders == 0 {
		p.MeanProviders = 1.9
	}
	if p.PeerRatio == 0 {
		p.PeerRatio = 0.85
	}
	if p.NumCPs == 0 {
		p.NumCPs = 17
	}
	if p.CPPeerDegree == 0 {
		p.CPPeerDegree = 40
	}
	if p.StubPeerFrac == 0 {
		p.StubPeerFrac = 0.05
	}
	if p.NumIXPs == 0 {
		p.NumIXPs = p.N / 130
		if p.NumIXPs < 3 {
			p.NumIXPs = 3
		}
	}
	if p.IXPMeanSize == 0 {
		p.IXPMeanSize = 24
	}
}

// Meta carries the generator's side information about a topology.
type Meta struct {
	// CPs are the designated content-provider ASes (Table 1's "CP" row).
	CPs []asgraph.AS
	// IXPs are synthetic IXP membership lists for asgraph.AugmentIXP.
	IXPs asgraph.IXPMemberships
	// NumTransit is the number of ASes with customers.
	NumTransit int
}

// Generate builds a synthetic topology. It panics only on programming
// errors; invalid Params produce an error.
func Generate(p Params) (*asgraph.Graph, *Meta, error) {
	p.applyDefaults()
	if p.N < p.NumTier1+p.NumCPs+10 {
		return nil, nil, fmt.Errorf("topogen: N=%d too small for %d Tier-1s and %d CPs", p.N, p.NumTier1, p.NumCPs)
	}
	rng := rand.New(rand.NewSource(p.Seed))

	numTransit := int(float64(p.N) * p.TransitFrac)
	if numTransit < p.NumTier1+20 {
		numTransit = p.NumTier1 + 20
	}
	// Index layout: [0, numTransit) transit ASes in hierarchy order
	// (Tier 1s first), then CPs, then stubs.
	cpStart := numTransit
	stubStart := numTransit + p.NumCPs
	n := p.N

	b := asgraph.NewBuilder(n)
	custDeg := make([]int, n)
	peerDeg := make([]int, n)
	// adj dedups links by their unordered endpoint pair packed into one
	// word (the runtime's fast 64-bit map path), presized to the expected
	// edge count — up to MeanProviders links per AS plus PeerRatio peer
	// links per customer link — so it never rehashes while it fills.
	adj := make(map[uint64]struct{}, int(float64(n)*p.MeanProviders*(1+p.PeerRatio)))
	linked := func(x, y asgraph.AS) bool {
		if x > y {
			x, y = y, x
		}
		k := uint64(uint32(x))<<32 | uint64(uint32(y))
		if _, ok := adj[k]; ok {
			return true
		}
		adj[k] = struct{}{}
		return false
	}
	addC2P := func(prov, cust asgraph.AS) bool {
		if linked(prov, cust) {
			return false
		}
		b.AddProviderCustomer(prov, cust)
		custDeg[prov]++
		return true
	}
	addPeer := func(x, y asgraph.AS) bool {
		if x == y || linked(x, y) {
			return false
		}
		b.AddPeer(x, y)
		peerDeg[x]++
		peerDeg[y]++
		return true
	}

	// Tier 1 clique: settlement-free peering among all provider-free ASes.
	for i := 0; i < p.NumTier1; i++ {
		for j := i + 1; j < p.NumTier1; j++ {
			addPeer(asgraph.AS(i), asgraph.AS(j))
		}
	}

	// pickProvider chooses a provider among transit ASes with index < hi
	// by preferential attachment on current customer degree; this yields
	// the heavy-tailed transit hierarchy. total is the weight of that
	// range, Σ (custDeg[j] + 1) over j < hi, which the caller keeps as a
	// running sum instead of a scan per draw.
	pickProvider := func(hi, total int) asgraph.AS {
		r := rng.Intn(total)
		for j := 0; j < hi; j++ {
			r -= custDeg[j] + 1
			if r < 0 {
				return asgraph.AS(j)
			}
		}
		return asgraph.AS(hi - 1)
	}
	// numProviders samples a provider count with the configured mean
	// (shifted geometric, capped at 4).
	numProviders := func() int {
		k := 1
		q := 1 - 1/p.MeanProviders // success prob of stopping
		for k < 4 && rng.Float64() < q {
			k++
		}
		return k
	}

	// Transit hierarchy: each non-Tier-1 transit AS buys from 1..4
	// earlier transit ASes, so the provider relation is a DAG rooted at
	// the Tier 1 clique.
	below := 0 // Σ custDeg[j] over j < i: every provider so far has a lower index
	for i := p.NumTier1; i < numTransit; i++ {
		k := numProviders()
		for a := 0; a < k; a++ {
			if addC2P(pickProvider(i, below+i), asgraph.AS(i)) {
				below++
			}
		}
	}
	// Every Tier 1 must end up with customers (Table 1 defines the tier
	// by high customer degree); give any straggler a mid-tier customer.
	for i := 0; i < p.NumTier1; i++ {
		for custDeg[i] == 0 {
			addC2P(asgraph.AS(i), asgraph.AS(p.NumTier1+rng.Intn(numTransit-p.NumTier1)))
		}
	}

	// pickWeighted samples a transit AS in [from, numTransit) with
	// weight (customer degree + 1). Two variants: pickTransitWeighted
	// over all transit ASes, and pickMidTierWeighted excluding the
	// Tier 1 clique — stubs and content providers overwhelmingly buy
	// transit from regional ISPs, not Tier 1 backbones, and Tier 1s
	// peer only with each other. (Both properties are load-bearing for
	// the paper's Section 4.6–4.7 findings: long provider chains to
	// Tier 1 destinations, and Tier 1 attackers whose bogus routes
	// spread only downward through their customer cones.)
	cumw := make([]int, numTransit+1)
	rebuildCum := func() {
		for j := 0; j < numTransit; j++ {
			cumw[j+1] = cumw[j] + custDeg[j] + 1
		}
	}
	rebuildCum()
	pickFrom := func(from int) asgraph.AS {
		base := cumw[from]
		r := base + rng.Intn(cumw[numTransit]-base)
		lo, hi := from, numTransit
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if cumw[mid] <= r {
				lo = mid
			} else {
				hi = mid
			}
		}
		return asgraph.AS(lo)
	}
	pickTransitWeighted := func() asgraph.AS { return pickFrom(0) }
	pickMidTierWeighted := func() asgraph.AS { return pickFrom(p.NumTier1) }

	// Content providers: no customers, 2..4 providers, heavy peering
	// added below. Unlike stubs, CPs buy transit from the largest
	// networks (degree-weighted, so mostly Tier 1s) — Google, Netflix
	// and friends are multihomed to the backbones, which is what lets
	// the paper's "Tier 1s + CPs + stubs" deployment give sources
	// secure routes to CP destinations through a Tier 1 first hop
	// (Section 5.3.1, Figure 13).
	for i := cpStart; i < stubStart; i++ {
		k := 2 + rng.Intn(3)
		for a := 0; a < k; a++ {
			addC2P(pickTransitWeighted(), asgraph.AS(i))
		}
	}

	// Stubs: the remaining ~85%, multihomed per MeanProviders. The
	// cumulative weights are refreshed periodically so stub homing
	// tracks the degree distribution without O(N·T) rebuild cost.
	for i := stubStart; i < n; i++ {
		k := numProviders()
		for a := 0; a < k; a++ {
			addC2P(pickProviderForEdge(rng, pickTransitWeighted, pickMidTierWeighted), asgraph.AS(i))
		}
		if (i-stubStart)%512 == 511 {
			rebuildCum()
		}
	}
	rebuildCum()

	// Peering. Target count keeps the UCLA peer/customer edge ratio.
	c2pEdges := 0
	for _, d := range custDeg {
		c2pEdges += d
	}
	targetPeer := int(p.PeerRatio * float64(c2pEdges))
	peerSoFar := p.NumTier1 * (p.NumTier1 - 1) / 2

	// CPs first: each CP peers widely with mid-tier transit ASes (real
	// content providers peer at IXPs with regional networks; Tier 1
	// backbones sell them transit instead).
	for i := cpStart; i < stubStart && peerSoFar < targetPeer; i++ {
		k := p.CPPeerDegree/2 + rng.Intn(p.CPPeerDegree)
		for a := 0; a < k && peerSoFar < targetPeer; a++ {
			if addPeer(asgraph.AS(i), pickMidTierWeighted()) {
				peerSoFar++
			}
		}
	}

	// Stubs-x: a small fraction of stubs peer with a couple of
	// mid-tier ASes.
	numStubX := int(p.StubPeerFrac * float64(n-stubStart))
	for a := 0; a < numStubX && peerSoFar < targetPeer; a++ {
		s := asgraph.AS(stubStart + rng.Intn(n-stubStart))
		k := 1 + rng.Intn(2)
		for j := 0; j < k && peerSoFar < targetPeer; j++ {
			if addPeer(s, pickMidTierWeighted()) {
				peerSoFar++
			}
		}
	}

	// Remaining peer edges among mid-tier transit ASes, weighted by
	// degree. Tier 1s never peer below the clique.
	for guard := 0; peerSoFar < targetPeer && guard < 40*targetPeer; guard++ {
		x, y := pickMidTierWeighted(), pickMidTierWeighted()
		if addPeer(x, y) {
			peerSoFar++
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("topogen: %w", err)
	}
	if err := asgraph.Validate(g); err != nil {
		return nil, nil, fmt.Errorf("topogen: generated invalid hierarchy: %w", err)
	}

	meta := &Meta{NumTransit: numTransit}
	for i := cpStart; i < stubStart; i++ {
		meta.CPs = append(meta.CPs, asgraph.AS(i))
	}

	// Synthetic IXPs: members drawn from the peered population
	// (transit, CPs, stubs-x), sizes geometric around the mean.
	peered := make([]asgraph.AS, 0, numTransit)
	for v := asgraph.AS(0); int(v) < n; v++ {
		if g.PeerDegree(v) > 0 || int(v) < numTransit {
			peered = append(peered, v)
		}
	}
	for ix := 0; ix < p.NumIXPs; ix++ {
		size := 4 + rng.Intn(2*p.IXPMeanSize-4)
		if size > len(peered) {
			size = len(peered)
		}
		seen := make(map[asgraph.AS]bool, size)
		var members []asgraph.AS
		for len(members) < size {
			v := peered[rng.Intn(len(peered))]
			if !seen[v] {
				seen[v] = true
				members = append(members, v)
			}
		}
		meta.IXPs = append(meta.IXPs, members)
	}
	return g, meta, nil
}

// pickProviderForEdge selects a transit provider for an edge AS (stub or
// content provider): 85% of the time a mid-tier ISP, 15% of the time any
// transit AS including a Tier 1 (large enterprises do buy directly from
// the backbones, but they are the minority).
func pickProviderForEdge(rng *rand.Rand, anyTransit, midTier func() asgraph.AS) asgraph.AS {
	if rng.Float64() < 0.15 {
		return anyTransit()
	}
	return midTier()
}

// MustGenerate is Generate, panicking on error; for tests and examples.
func MustGenerate(p Params) (*asgraph.Graph, *Meta) {
	g, m, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return g, m
}
