package core

import (
	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// This file implements the deployment-invariant partitioning of
// Section 4.3 / Appendix E: with respect to a fixed attacker-destination
// pair (m, d), every source AS is doomed (routes to the attacker no
// matter which ASes are secure), immune (routes to the destination no
// matter which ASes are secure), or protectable.
//
// Following Appendix E, the partition is computed from the S = ∅ routing
// outcome (Corollaries E.1/E.2 show the class — and for security 3rd
// also the length — of every AS's stabilized route is the same for every
// deployment S):
//
//   - security 3rd (E.1): an AS's fate is decided by its best
//     (class, length) candidates in the S = ∅ run — exactly the
//     three-valued labels the outcome engine already computes;
//   - security 2nd (E.2): security outranks length within a class, so
//     the candidate pool widens to *every* available route of the AS's
//     stabilized class, of any length;
//   - security 1st (E.3): only perceivability matters — an AS is doomed
//     iff every valley-free path to the destination crosses the
//     attacker, immune iff it cannot perceive the attacker at all.

// Category is the Table 2 status of a source with respect to an
// attacker-destination pair, over all possible deployments.
type Category uint8

const (
	// CatImmune: happy regardless of which ASes are secure.
	CatImmune Category = iota
	// CatDoomed: unhappy regardless of which ASes are secure.
	CatDoomed
	// CatProtectable: fate depends on the deployment.
	CatProtectable

	// NumCategories is the number of categories.
	NumCategories = int(CatProtectable) + 1
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case CatImmune:
		return "immune"
	case CatDoomed:
		return "doomed"
	default:
		return "protectable"
	}
}

const infLen = int32(1) << 30

// Partition holds, for one (m, d) pair, every source AS's category under
// each of the three security models. Slices are owned by the Partitioner
// and valid until its next Run.
type Partition struct {
	Dst      asgraph.AS
	Attacker asgraph.AS
	// Cat[model][v] is v's category under that security model.
	Cat [policy.NumModels][]Category
}

// Counts returns the number of immune, doomed, and protectable source
// ASes under the given model.
func (p *Partition) Counts(m policy.Model) (immune, doomed, protectable int) {
	for v, c := range p.Cat[m] {
		if asgraph.AS(v) == p.Dst || asgraph.AS(v) == p.Attacker {
			continue
		}
		switch c {
		case CatImmune:
			immune++
		case CatDoomed:
			doomed++
		default:
			protectable++
		}
	}
	return
}

// Partitioner computes partitions; like Engine it owns reusable scratch
// and must not be shared across goroutines.
type Partitioner struct {
	g   *asgraph.Graph
	lp  policy.LocalPref
	eng *Engine // S = ∅ outcome provider (all models agree at S = ∅)

	part Partition

	// topo is a topological order of the provider DAG with customers
	// before their providers; the security 2nd possibility recursion
	// walks it forward for customer-class ASes and backward for
	// provider-class ASes.
	topo []asgraph.AS

	// mask2[v] is the security 2nd endpoint-possibility bitmask.
	mask2 []uint8

	// structural perceivable-reachability scratch for the security 1st
	// partition (Appendix E.3). up marks ASes reachable via a pure
	// customer chain during one reachable call; queue is the shared BFS
	// queue, drained with a head index so its capacity survives runs.
	dReach, mReach, up []bool
	queue              []asgraph.AS
}

// NewPartitioner returns a partitioner under the given local-preference
// variant (policy.Standard for the paper's main results, policy.LP2 for
// Appendix K).
func NewPartitioner(g *asgraph.Graph, lp policy.LocalPref) *Partitioner {
	n := g.N()
	p := &Partitioner{
		g: g, lp: lp,
		eng: NewEngineLP(g, policy.Sec3rd, lp),
	}
	p.attachScratch(n)
	// Kahn's algorithm over customer→provider edges: an AS appears
	// after all of its customers.
	indeg := make([]int, n)
	for v := asgraph.AS(0); int(v) < n; v++ {
		indeg[v] = g.CustomerDegree(v)
	}
	queue := make([]asgraph.AS, 0, n)
	for v := asgraph.AS(0); int(v) < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		p.topo = append(p.topo, v)
		for _, u := range g.Providers(v) {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if len(p.topo) != n {
		panic("core: customer-provider cycle; run asgraph.Validate first")
	}
	return p
}

// attachScratch backs the partitioner's fixed-size per-AS scratch — the
// three category arrays, the sec-2nd mask, and the three reachability
// bitmaps — with one arena allocation, mirroring the engine's slab
// discipline (slab.go). The BFS queue stays a growable slice: reachable
// drains it by head index, so its capacity is retained across runs.
func (p *Partitioner) attachScratch(n int) {
	if n == 0 {
		return
	}
	s := newSlab((len(p.part.Cat) + 4) * alignUp(n))
	for i := range p.part.Cat {
		p.part.Cat[i] = sectionOf[Category](s, n)
	}
	p.mask2 = sectionOf[uint8](s, n)
	p.dReach = sectionOf[bool](s, n)
	p.mReach = sectionOf[bool](s, n)
	p.up = sectionOf[bool](s, n)
}

// Run computes the partition for attacker m and destination d. The
// returned Partition is owned by the partitioner and valid until the
// next Run.
func (p *Partitioner) Run(d, m asgraph.AS) *Partition {
	if d == m || m == asgraph.None {
		panic("core: partition requires a distinct attacker")
	}
	p.part.Dst, p.part.Attacker = d, m
	o := p.eng.Run(d, m, nil) // S = ∅; every model yields this outcome

	p.reachable(d, m, p.dReach)
	p.reachable(m, d, p.mReach)

	n := p.g.N()
	for v := asgraph.AS(0); int(v) < n; v++ {
		if v == d || v == m {
			for mi := range p.part.Cat {
				p.part.Cat[mi][v] = CatImmune
			}
			continue
		}

		// Security 1st (Appendix E.3): structural perceivability only.
		// An AS that perceives neither root has no route at all: doomed.
		switch {
		case !p.dReach[v]:
			p.part.Cat[policy.Sec1st][v] = CatDoomed
		case !p.mReach[v]:
			p.part.Cat[policy.Sec1st][v] = CatImmune
		default:
			p.part.Cat[policy.Sec1st][v] = CatProtectable
		}

		// Security 3rd (Corollary E.1): the S = ∅ label is the verdict —
		// the stabilized (class, length) is deployment-invariant, and
		// the best candidates' endpoints decide the category.
		p.part.Cat[policy.Sec3rd][v] = labelCategory(o.Label[v])
	}

	// Security 2nd (Corollary E.2): same class, any length — with the
	// possibilities propagated recursively, because a secure AS may
	// switch to a *longer* same-class route whose endpoints its
	// shortest candidates never see.
	p.computeSec2(o)
	for v := asgraph.AS(0); int(v) < n; v++ {
		if v == d || v == m {
			continue
		}
		p.part.Cat[policy.Sec2nd][v] = maskCategory(p.mask2[v])
	}
	return &p.part
}

func labelCategory(l Label) Category {
	switch l {
	case LabelDest:
		return CatImmune
	case LabelAttacker:
		return CatDoomed
	case LabelAmbig:
		return CatProtectable
	default: // unrouted at S = ∅, and so under every S: never happy
		return CatDoomed
	}
}

const (
	maskD uint8 = 1 << iota // the AS may end up routing to the destination
	maskM                   // the AS may end up routing to the attacker
)

func maskCategory(m uint8) Category {
	switch m {
	case maskD:
		return CatImmune
	case maskM, 0: // unrouted ASes are never happy
		return CatDoomed
	default:
		return CatProtectable
	}
}

// computeSec2 fills mask2 with each AS's endpoint possibilities under
// the security 2nd model, per Corollary E.2: an AS's stabilized route
// class is deployment-invariant, and within that class security outranks
// length, so the AS may end up behind *any* same-class candidate —
// recursively. Customer-class ASes are resolved up the provider DAG
// (their candidates are their customers), then peer-class ASes (their
// candidates hold customer routes), then provider-class ASes down the
// DAG (their candidates are their providers, of any class).
func (p *Partitioner) computeSec2(o *Outcome) {
	g := p.g
	for v := range p.mask2 {
		p.mask2[v] = 0
	}
	p.mask2[o.Dst] = maskD
	if o.Attacker != asgraph.None {
		p.mask2[o.Attacker] = maskM
	}

	for _, v := range p.topo { // customers before providers
		if o.Class[v] == policy.ClassCustomer {
			p.mask2[v] = p.pool(o, v, g.Customers(v), false)
		}
	}
	for v := asgraph.AS(0); int(v) < g.N(); v++ {
		if o.Class[v] == policy.ClassPeer {
			p.mask2[v] = p.pool(o, v, g.Peers(v), false)
		}
	}
	for i := len(p.topo) - 1; i >= 0; i-- { // providers before customers
		v := p.topo[i]
		if o.Class[v] == policy.ClassProvider {
			p.mask2[v] = p.pool(o, v, g.Providers(v), true)
		}
	}
}

// pool merges the endpoint possibilities of v's same-class candidates.
// Export rule: customer- and peer-class routes at v require the
// candidate w to hold a customer route (or be an origin); provider-class
// routes accept any routed w. Under LPk the class is the rank bucket, so
// the candidate's (S = ∅) length must land in v's bucket; under standard
// LP the rank check is a no-op.
func (p *Partitioner) pool(o *Outcome, v asgraph.AS, nbrs []asgraph.AS, wide bool) uint8 {
	rank := p.lp.RankClass(o.Class[v], int(o.Len[v]))
	var mask uint8
	for _, w := range nbrs {
		switch o.Class[w] {
		case policy.ClassNone:
			continue
		case policy.ClassCustomer, policy.ClassOrigin:
		default:
			if !wide {
				continue
			}
		}
		if p.lp.RankClass(o.Class[v], int(o.Len[w])+1) != rank {
			continue
		}
		mask |= p.mask2[w]
	}
	return mask
}

// reachable marks every AS with at least one valley-free (perceivable)
// route to root r that avoids x: a customer-route BFS upward, one peer
// hop, then downward closure. This is Definition B.1 reachability,
// choice-independent, as Appendix E.3 requires for the security 1st
// partition.
func (p *Partitioner) reachable(r, x asgraph.AS, reach []bool) {
	g := p.g
	n := g.N()
	clear(reach)
	up := p.up // reachable via a pure customer chain
	clear(up)

	reach[r] = true
	up[r] = true
	// Both BFS passes drain the queue by head index: re-slicing away the
	// head would shed capacity and force a reallocation every few runs.
	q := p.queue[:0]
	q = append(q, r)
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, u := range g.Providers(v) {
			if u != x && u != r && !up[u] {
				up[u] = true
				reach[u] = true
				q = append(q, u)
			}
		}
	}
	// One peer hop off the customer chain (or off the root itself).
	for v := asgraph.AS(0); int(v) < n; v++ {
		if !up[v] || v == x {
			continue
		}
		for _, u := range g.Peers(v) {
			if u != x && u != r {
				reach[u] = true
			}
		}
	}
	// Downward closure: anything reachable announces to customers.
	q = q[:0]
	for v := asgraph.AS(0); int(v) < n; v++ {
		if reach[v] {
			q = append(q, v)
		}
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, u := range g.Customers(v) {
			if u != x && u != r && !reach[u] {
				reach[u] = true
				q = append(q, u)
			}
		}
	}
	p.queue = q[:0]
}
