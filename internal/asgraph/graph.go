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
	"math"
	"slices"
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
// The lists are stored in compressed sparse row form: adj holds all 3n of
// them back to back, and list k (k = 3v, 3v+1, 3v+2 for v's customers,
// peers and providers) is adj[off[k]:off[k+1]]. Two allocations hold the
// whole topology, whatever its size.
//
// Construct a Graph with a Builder; the zero Graph is an empty topology.
type Graph struct {
	adj []AS    // every adjacency list, in list order
	off []int32 // 3n+1 list boundaries into adj; nil for the zero Graph

	asns []int32 // optional external ASN per index; nil means identity

	numC2P int // number of customer→provider edges
	numP2P int // number of peer-peer edges
}

// list returns adjacency list k, cap-limited so an append by the caller
// reallocates instead of overwriting the next list, and nil when empty.
func (g *Graph) list(k int) []AS {
	lo, hi := g.off[k], g.off[k+1]
	if lo == hi {
		return nil
	}
	return g.adj[lo:hi:hi]
}

// span returns the length of adjacency lists k through j-1.
func (g *Graph) span(k, j int) int { return int(g.off[j] - g.off[k]) }

// N returns the number of ASes in the graph.
func (g *Graph) N() int { return len(g.off) / 3 }

// NumCustomerProviderLinks returns the number of customer-to-provider edges.
func (g *Graph) NumCustomerProviderLinks() int { return g.numC2P }

// NumPeerLinks returns the number of peer-to-peer edges.
func (g *Graph) NumPeerLinks() int { return g.numP2P }

// Customers returns v's customers. The caller must not modify the slice.
func (g *Graph) Customers(v AS) []AS { return g.list(3 * int(v)) }

// Peers returns v's peers. The caller must not modify the slice.
func (g *Graph) Peers(v AS) []AS { return g.list(3*int(v) + 1) }

// Providers returns v's providers. The caller must not modify the slice.
func (g *Graph) Providers(v AS) []AS { return g.list(3*int(v) + 2) }

// CustomerDegree returns the number of customers of v.
func (g *Graph) CustomerDegree(v AS) int { return g.span(3*int(v), 3*int(v)+1) }

// PeerDegree returns the number of peers of v.
func (g *Graph) PeerDegree(v AS) int { return g.span(3*int(v)+1, 3*int(v)+2) }

// ProviderDegree returns the number of providers of v.
func (g *Graph) ProviderDegree(v AS) int { return g.span(3*int(v)+2, 3*int(v)+3) }

// Degree returns the total number of neighbors of v.
func (g *Graph) Degree(v AS) int { return g.span(3*int(v), 3*int(v)+3) }

// IsStub reports whether v has no customers and no peers ("Stubs" in
// Table 1 of the paper).
func (g *Graph) IsStub(v AS) bool { return g.span(3*int(v), 3*int(v)+2) == 0 }

// IsStubX reports whether v has peers but no customers ("Stubs-x").
func (g *Graph) IsStubX(v AS) bool {
	return g.CustomerDegree(v) == 0 && g.PeerDegree(v) > 0
}

// IsAnyStub reports whether v has no customers (Stub or Stub-x). These are
// the ASes that never transit traffic under the export policy Ex, and the
// candidates for simplex S*BGP (Section 5.3.2).
func (g *Graph) IsAnyStub(v AS) bool { return g.CustomerDegree(v) == 0 }

// Rel returns the relationship of u from v's point of view: RelCustomer if
// u is v's customer, and so on; RelNone if not adjacent (or v == u).
func (g *Graph) Rel(v, u AS) Rel {
	if _, ok := slices.BinarySearch(g.Customers(v), u); ok {
		return RelCustomer
	}
	if _, ok := slices.BinarySearch(g.Peers(v), u); ok {
		return RelPeer
	}
	if _, ok := slices.BinarySearch(g.Providers(v), u); ok {
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
// relationship annotations) and returns the immutable Graph, in time
// linear in ASes plus edges, with no map and no sort. A counting pass
// sizes every adjacency list and fixes off; a second pass buckets each
// edge end by its neighbour; walking the buckets in neighbour order then
// scatters every neighbour into its list, so each list comes out sorted.
// A duplicate or conflicting edge shows up as a neighbour repeated across
// one AS's three lists, and only then does firstDuplicate scan for the
// edge to name.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.n > (math.MaxInt32-1)/3 || len(b.edges) > math.MaxInt32/2 {
		return nil, fmt.Errorf("%d ASes and %d edges overflow the int32 adjacency offsets", b.n, len(b.edges))
	}
	g := &Graph{off: make([]int32, 3*b.n+1), asns: b.asns}
	off := g.off
	for _, e := range b.edges {
		la, lb := e.lists()
		off[la+1]++
		off[lb+1]++
		if e.peer {
			g.numP2P++
		} else {
			g.numC2P++
		}
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	// ends[i] is the list an edge end belongs to. Ends are bucketed by
	// their neighbour u: u's bucket has Degree(u) entries, so it starts
	// where u's own lists start, and fill[u] counts it up to that size.
	ends := make([]int32, 2*len(b.edges))
	fill := make([]int32, b.n)
	for _, e := range b.edges {
		la, lb := e.lists()
		ends[off[3*int(e.b)]+fill[e.b]] = la
		fill[e.b]++
		ends[off[3*int(e.a)]+fill[e.a]] = lb
		fill[e.a]++
	}
	// Scatter in neighbour order with off[k] as list k's cursor, which
	// leaves off[k] at list k's end; shifting by one restores the starts.
	g.adj = make([]AS, len(ends))
	i := int32(0)
	for u, d := range fill {
		for _, k := range ends[i : i+d] {
			g.adj[off[k]] = AS(u)
			off[k]++
		}
		i += d
	}
	copy(off[1:], off)
	off[0] = 0
	for v := AS(0); int(v) < b.n; v++ {
		if hasRepeat(g.Customers(v), g.Peers(v), g.Providers(v)) {
			return nil, b.firstDuplicate()
		}
	}
	return g, nil
}

// lists returns the adjacency lists that hold e's two ends: la, where
// e.a lists e.b, and lb, where e.b lists e.a.
func (e edge) lists() (la, lb int32) {
	if e.peer {
		return 3*int32(e.a) + 1, 3*int32(e.b) + 1
	}
	return 3 * int32(e.a), 3*int32(e.b) + 2
}

// hasRepeat reports whether some AS appears twice across the sorted
// lists a, b and c, merging them smallest head first.
func hasRepeat(a, b, c []AS) bool {
	prev := None
	for len(a)+len(b)+len(c) > 0 {
		var x AS
		switch {
		case len(a) > 0 && (len(b) == 0 || a[0] <= b[0]) && (len(c) == 0 || a[0] <= c[0]):
			x, a = a[0], a[1:]
		case len(b) > 0 && (len(c) == 0 || b[0] <= c[0]):
			x, b = b[0], b[1:]
		default:
			x, c = c[0], c[1:]
		}
		if x == prev {
			return true
		}
		prev = x
	}
	return false
}

// firstDuplicate names the first recorded edge whose two ASes an earlier
// edge already joins. Build calls it only once it has found such a pair.
func (b *Builder) firstDuplicate() error {
	type ukey struct{ x, y AS }
	seen := make(map[ukey]bool, len(b.edges))
	for _, e := range b.edges {
		k := ukey{min(e.a, e.b), max(e.a, e.b)}
		if seen[k] {
			return fmt.Errorf("duplicate or conflicting edge between AS %d and AS %d", e.a, e.b)
		}
		seen[k] = true
	}
	panic("asgraph: Build found a repeated neighbour but no duplicate edge")
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
