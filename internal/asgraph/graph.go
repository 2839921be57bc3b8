// Package asgraph provides the AS-level topology substrate used throughout
// the reproduction of "BGP Security in Partial Deployment: Is the Juice
// Worth the Squeeze?" (Lychev, Goldberg, Schapira; SIGCOMM 2013).
//
// The Internet's interdomain topology is modeled, exactly as in Section 2.2
// of the paper, as an undirected graph whose vertices are ASes and whose
// edges are annotated with a business relationship: customer-to-provider
// (the customer pays the provider for transit) or peer-to-peer (the two
// ASes transit each other's customer traffic settlement-free).
//
// ASes are identified by dense indices of type AS in [0, N); an optional
// external ASN table maps indices to real-world-style AS numbers for
// display. Dense indices keep the routing-outcome engine (internal/core)
// allocation-free on its hot path.
package asgraph

import (
	"fmt"
	"slices"
	"sort"
)

// AS identifies an autonomous system by its dense index within a Graph.
type AS int32

// None is the sentinel "no AS" value (used for absent next hops, roots,
// and attackers in normal-conditions runs).
const None AS = -1

// Rel describes the business relationship of a neighbor from the point of
// view of a given AS. If u is v's customer then routes v learns from u are
// "customer routes" in the terminology of Section 2.2 of the paper.
type Rel uint8

const (
	// RelNone means the two ASes are not adjacent.
	RelNone Rel = iota
	// RelCustomer: the neighbor is a customer (it pays us).
	RelCustomer
	// RelPeer: the neighbor is a settlement-free peer.
	RelPeer
	// RelProvider: the neighbor is a provider (we pay it).
	RelProvider
)

// String returns the lower-case name of the relationship.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return "none"
	}
}

// Graph is an immutable AS-level topology. Adjacency lists are grouped by
// business relationship and sorted by AS index, which makes neighbor
// iteration deterministic and membership tests logarithmic.
//
// Construct a Graph with a Builder; the zero Graph is an empty topology.
type Graph struct {
	customers [][]AS // customers[v]: neighbors that are customers of v
	peers     [][]AS // peers[v]: neighbors that are peers of v
	providers [][]AS // providers[v]: neighbors that are providers of v

	asns []int32 // optional external ASN per index; nil means identity

	numC2P int // number of customer→provider edges
	numP2P int // number of peer-peer edges
}

// N returns the number of ASes in the graph.
func (g *Graph) N() int { return len(g.customers) }

// NumCustomerProviderLinks returns the number of customer-to-provider edges.
func (g *Graph) NumCustomerProviderLinks() int { return g.numC2P }

// NumPeerLinks returns the number of peer-to-peer edges.
func (g *Graph) NumPeerLinks() int { return g.numP2P }

// Customers returns v's customers. The caller must not modify the slice.
func (g *Graph) Customers(v AS) []AS { return g.customers[v] }

// Peers returns v's peers. The caller must not modify the slice.
func (g *Graph) Peers(v AS) []AS { return g.peers[v] }

// Providers returns v's providers. The caller must not modify the slice.
func (g *Graph) Providers(v AS) []AS { return g.providers[v] }

// CustomerDegree returns the number of customers of v.
func (g *Graph) CustomerDegree(v AS) int { return len(g.customers[v]) }

// PeerDegree returns the number of peers of v.
func (g *Graph) PeerDegree(v AS) int { return len(g.peers[v]) }

// ProviderDegree returns the number of providers of v.
func (g *Graph) ProviderDegree(v AS) int { return len(g.providers[v]) }

// Degree returns the total number of neighbors of v.
func (g *Graph) Degree(v AS) int {
	return len(g.customers[v]) + len(g.peers[v]) + len(g.providers[v])
}

// IsStub reports whether v has no customers and no peers ("Stubs" in
// Table 1 of the paper).
func (g *Graph) IsStub(v AS) bool {
	return len(g.customers[v]) == 0 && len(g.peers[v]) == 0
}

// IsStubX reports whether v has peers but no customers ("Stubs-x").
func (g *Graph) IsStubX(v AS) bool {
	return len(g.customers[v]) == 0 && len(g.peers[v]) > 0
}

// IsAnyStub reports whether v has no customers (Stub or Stub-x). These are
// the ASes that never transit traffic under the export policy Ex, and the
// candidates for simplex S*BGP (Section 5.3.2).
func (g *Graph) IsAnyStub(v AS) bool { return len(g.customers[v]) == 0 }

// Rel returns the relationship of u from v's point of view: RelCustomer if
// u is v's customer, and so on; RelNone if not adjacent (or v == u).
func (g *Graph) Rel(v, u AS) Rel {
	if contains(g.customers[v], u) {
		return RelCustomer
	}
	if contains(g.peers[v], u) {
		return RelPeer
	}
	if contains(g.providers[v], u) {
		return RelProvider
	}
	return RelNone
}

// ASN returns the external AS number for index v (v itself if no ASN table
// was installed).
func (g *Graph) ASN(v AS) int32 {
	if g.asns == nil {
		return int32(v)
	}
	return g.asns[v]
}

// Lookup returns the dense index for an external ASN, or (None, false) if
// the ASN is unknown. It is O(N) and intended for tooling, not hot paths.
func (g *Graph) Lookup(asn int32) (AS, bool) {
	if g.asns == nil {
		if asn >= 0 && int(asn) < g.N() {
			return AS(asn), true
		}
		return None, false
	}
	for i, a := range g.asns {
		if a == asn {
			return AS(i), true
		}
	}
	return None, false
}

func contains(s []AS, x AS) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// Builder incrementally assembles a Graph. Methods record edges; Build
// validates and freezes the topology. A Builder must not be reused after
// Build.
type Builder struct {
	n     int
	edges []edge
	asns  []int32
	err   error
}

type edge struct {
	a, b AS // for c2p edges a=provider, b=customer; for p2p order is a<b
	peer bool
}

// NewBuilder returns a Builder for a graph over n ASes indexed 0..n-1.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// SetASN installs an external AS number for index v (for display only).
func (b *Builder) SetASN(v AS, asn int32) {
	if b.check(v) {
		if b.asns == nil {
			b.asns = make([]int32, b.n)
			for i := range b.asns {
				b.asns[i] = int32(i)
			}
		}
		b.asns[v] = asn
	}
}

// AddProviderCustomer records a customer-to-provider edge: customer pays
// provider for transit.
func (b *Builder) AddProviderCustomer(provider, customer AS) {
	if !b.check(provider) || !b.check(customer) {
		return
	}
	if provider == customer {
		b.fail("self loop at AS %d", provider)
		return
	}
	b.edges = append(b.edges, edge{a: provider, b: customer})
}

// AddPeer records a peer-to-peer edge between a and b.
func (b *Builder) AddPeer(a, c AS) {
	if !b.check(a) || !b.check(c) {
		return
	}
	if a == c {
		b.fail("self peer loop at AS %d", a)
		return
	}
	if a > c {
		a, c = c, a
	}
	b.edges = append(b.edges, edge{a: a, b: c, peer: true})
}

func (b *Builder) check(v AS) bool {
	if v < 0 || int(v) >= b.n {
		b.fail("AS index %d out of range [0,%d)", v, b.n)
		return false
	}
	return b.err == nil
}

func (b *Builder) fail(format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Build validates the recorded edges (no duplicates, no conflicting
// relationship annotations) and returns the immutable Graph. Degrees are
// counted first so all 3n adjacency lists are carved from one backing
// array: each list is a cap-limited subslice (an append by a later
// holder reallocates instead of overwriting a neighbour's list) and an
// AS without neighbours of a kind keeps a nil list.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	type ukey struct{ x, y AS }
	seen := make(map[ukey]bool, len(b.edges))
	g := &Graph{
		customers: make([][]AS, b.n),
		peers:     make([][]AS, b.n),
		providers: make([][]AS, b.n),
		asns:      b.asns,
	}
	type degrees struct{ customers, peers, providers int32 }
	deg := make([]degrees, b.n)
	for _, e := range b.edges {
		x, y := e.a, e.b
		if x > y {
			x, y = y, x
		}
		k := ukey{x, y}
		if seen[k] {
			return nil, fmt.Errorf("duplicate or conflicting edge between AS %d and AS %d", e.a, e.b)
		}
		seen[k] = true
		if e.peer {
			deg[e.a].peers++
			deg[e.b].peers++
			g.numP2P++
		} else {
			deg[e.a].customers++
			deg[e.b].providers++
			g.numC2P++
		}
	}
	backing := make([]AS, 2*len(b.edges))
	carve := func(d int32) []AS {
		if d == 0 {
			return nil
		}
		s := backing[:0:d]
		backing = backing[d:]
		return s
	}
	for v, d := range deg {
		g.customers[v] = carve(d.customers)
		g.peers[v] = carve(d.peers)
		g.providers[v] = carve(d.providers)
	}
	for _, e := range b.edges {
		if e.peer {
			g.peers[e.a] = append(g.peers[e.a], e.b)
			g.peers[e.b] = append(g.peers[e.b], e.a)
		} else {
			g.customers[e.a] = append(g.customers[e.a], e.b)
			g.providers[e.b] = append(g.providers[e.b], e.a)
		}
	}
	for v := 0; v < b.n; v++ {
		sortASes(g.customers[v])
		sortASes(g.peers[v])
		sortASes(g.providers[v])
	}
	return g, nil
}

// MustBuild is Build, panicking on error. It is intended for tests and
// hand-assembled example topologies.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func sortASes(s []AS) { slices.Sort(s) }
