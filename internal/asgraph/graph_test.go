package asgraph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddProviderCustomer(0, 1) // 1 pays 0
	b.AddProviderCustomer(1, 2)
	b.AddPeer(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.NumCustomerProviderLinks() != 2 || g.NumPeerLinks() != 1 {
		t.Fatalf("edge counts = (%d,%d), want (2,1)", g.NumCustomerProviderLinks(), g.NumPeerLinks())
	}
	if got := g.Rel(0, 1); got != RelCustomer {
		t.Errorf("Rel(0,1) = %v, want customer", got)
	}
	if got := g.Rel(1, 0); got != RelProvider {
		t.Errorf("Rel(1,0) = %v, want provider", got)
	}
	if got := g.Rel(2, 3); got != RelPeer {
		t.Errorf("Rel(2,3) = %v, want peer", got)
	}
	if got := g.Rel(0, 3); got != RelNone {
		t.Errorf("Rel(0,3) = %v, want none", got)
	}
	if !g.IsStubX(3) || g.IsStub(3) {
		t.Errorf("AS 3 has a peer and no customers: stub-x, not plain stub")
	}
}

// randomEdges records a random valid edge set (providers below their
// customers, so the hierarchy is acyclic) on a fresh builder and returns
// it with the reference adjacency, built the obvious way.
func randomEdges(n int, seed int64) (b *Builder, customers, peers, providers [][]AS) {
	rng := rand.New(rand.NewSource(seed))
	b = NewBuilder(n)
	customers, peers, providers = make([][]AS, n), make([][]AS, n), make([][]AS, n)
	type pair struct{ x, y AS }
	used := map[pair]bool{}
	for e := 0; e < 3*n; e++ {
		x, y := AS(rng.Intn(n)), AS(rng.Intn(n))
		if x > y {
			x, y = y, x
		}
		if x == y || used[pair{x, y}] {
			continue
		}
		used[pair{x, y}] = true
		if rng.Intn(3) == 0 {
			b.AddPeer(y, x)
			peers[x], peers[y] = append(peers[x], y), append(peers[y], x)
		} else {
			b.AddProviderCustomer(x, y)
			customers[x], providers[y] = append(customers[x], y), append(providers[y], x)
		}
	}
	for _, lists := range [][][]AS{customers, peers, providers} {
		for _, l := range lists {
			slices.Sort(l)
		}
	}
	return b, customers, peers, providers
}

// TestBuildCarvesOneBackingArray pins what Build's single-array layout
// must not change — every list holds exactly the reference neighbours in
// ascending order, and an AS without neighbours of a kind has a nil list
// — and what it must guarantee: each list is cap-limited, so appending
// to one can never write into the next AS's neighbours; and the whole
// build costs a fixed handful of allocations, not three per AS.
func TestBuildCarvesOneBackingArray(t *testing.T) {
	const n = 300
	b, customers, peers, providers := randomEdges(n, 1)
	g := b.MustBuild()
	for v := AS(0); v < n; v++ {
		for _, l := range []struct {
			kind      string
			got, want []AS
		}{
			{"customers", g.Customers(v), customers[v]},
			{"peers", g.Peers(v), peers[v]},
			{"providers", g.Providers(v), providers[v]},
		} {
			if !slices.Equal(l.got, l.want) {
				t.Fatalf("AS %d %s = %v, want %v", v, l.kind, l.got, l.want)
			}
			if (l.got == nil) != (len(l.want) == 0) {
				t.Fatalf("AS %d %s: empty list must be nil and only an empty one", v, l.kind)
			}
			if cap(l.got) != len(l.got) {
				t.Fatalf("AS %d %s has spare capacity %d: an append would overwrite a neighbouring list", v, l.kind, cap(l.got)-len(l.got))
			}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		b, _, _, _ := randomEdges(n, 1)
		b.MustBuild()
	}) - testing.AllocsPerRun(5, func() { randomEdges(n, 1) })
	if allocs > 40 {
		t.Errorf("Build allocates %.0f times for a %d-AS graph: adjacency lists are not carved from one array", allocs, n)
	}
}

func TestBuilderRejectsDuplicates(t *testing.T) {
	cases := []func(*Builder){
		func(b *Builder) { b.AddProviderCustomer(0, 1); b.AddProviderCustomer(0, 1) },
		func(b *Builder) { b.AddProviderCustomer(0, 1); b.AddProviderCustomer(1, 0) },
		func(b *Builder) { b.AddProviderCustomer(0, 1); b.AddPeer(0, 1) },
		func(b *Builder) { b.AddPeer(1, 2); b.AddPeer(2, 1) },
	}
	for i, setup := range cases {
		b := NewBuilder(3)
		setup(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: Build accepted duplicate/conflicting edge", i)
		}
	}
}

func TestBuilderRejectsBadIndices(t *testing.T) {
	b := NewBuilder(2)
	b.AddProviderCustomer(0, 2)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted out-of-range AS index")
	}
	b = NewBuilder(2)
	b.AddPeer(1, 1)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted self peer loop")
	}
}

func TestStubClassifiers(t *testing.T) {
	b := NewBuilder(5)
	b.AddProviderCustomer(0, 1)
	b.AddProviderCustomer(0, 2)
	b.AddPeer(2, 3)
	b.AddProviderCustomer(1, 4)
	g := b.MustBuild()
	if !g.IsStub(4) || g.IsStubX(4) {
		t.Error("AS 4 should be plain stub")
	}
	if !g.IsStubX(2) || g.IsStub(2) {
		t.Error("AS 2 has a peer and no customers: stub-x")
	}
	if g.IsAnyStub(0) || g.IsAnyStub(1) {
		t.Error("ASes with customers are not stubs")
	}
}

func TestValidateDetectsProviderCycle(t *testing.T) {
	b := NewBuilder(3)
	b.AddProviderCustomer(0, 1) // 0 provides 1
	b.AddProviderCustomer(1, 2)
	b.AddProviderCustomer(2, 0) // cycle 0→1→2→0
	g := b.MustBuild()
	if err := Validate(g); err == nil {
		t.Error("Validate accepted a customer-provider cycle")
	}
}

func TestValidateAcceptsDAG(t *testing.T) {
	b := NewBuilder(4)
	b.AddProviderCustomer(0, 1)
	b.AddProviderCustomer(0, 2)
	b.AddProviderCustomer(1, 3)
	b.AddProviderCustomer(2, 3) // diamond, still acyclic
	g := b.MustBuild()
	if err := Validate(g); err != nil {
		t.Errorf("Validate rejected a DAG: %v", err)
	}
}

func TestConnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddProviderCustomer(0, 1)
	b.AddPeer(2, 3)
	g := b.MustBuild()
	if Connected(g) {
		t.Error("graph with two components reported connected")
	}
	b = NewBuilder(4)
	b.AddProviderCustomer(0, 1)
	b.AddPeer(1, 2)
	b.AddProviderCustomer(2, 3)
	if !Connected(b.MustBuild()) {
		t.Error("connected graph reported disconnected")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	b := NewBuilder(5)
	b.AddProviderCustomer(0, 1)
	b.AddProviderCustomer(0, 2)
	b.AddPeer(1, 2)
	b.AddProviderCustomer(1, 3)
	b.AddProviderCustomer(2, 4)
	b.SetASN(3, 64500)
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteTo(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.NumCustomerProviderLinks() != g.NumCustomerProviderLinks() || g2.NumPeerLinks() != g.NumPeerLinks() {
		t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
			g2.N(), g2.NumCustomerProviderLinks(), g2.NumPeerLinks(),
			g.N(), g.NumCustomerProviderLinks(), g.NumPeerLinks())
	}
	for v := AS(0); v < AS(g.N()); v++ {
		for u := AS(0); u < AS(g.N()); u++ {
			if g.Rel(v, u) != g2.Rel(v, u) {
				t.Fatalf("Rel(%d,%d) changed across round trip", v, u)
			}
		}
	}
	if g2.ASN(3) != 64500 {
		t.Errorf("ASN(3) = %d, want 64500", g2.ASN(3))
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"p2c 0 1",               // edge before n
		"n 2\np2c 0 5",          // out of range
		"n 2\nbogus 0 1",        // unknown directive
		"n x",                   // bad count
		"n 2\np2c 0",            // missing field
		"",                      // no n at all
		"n 2\nn 3",              // duplicate n
		"n 3\np2c 0 1\np2p 0 1", // conflicting edge
	} {
		if _, err := ReadFrom(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFrom(%q) succeeded, want error", in)
		}
	}
}

func TestAugmentIXP(t *testing.T) {
	b := NewBuilder(5)
	b.AddProviderCustomer(0, 1)
	b.AddProviderCustomer(0, 2)
	b.AddProviderCustomer(1, 3)
	b.AddProviderCustomer(2, 4)
	b.AddPeer(1, 2)
	g := b.MustBuild()

	// IXP with members 1,3,4: 1-3 already adjacent (provider link), so
	// only 1-4 and 3-4 should be added.
	aug, added := AugmentIXP(g, IXPMemberships{{1, 3, 4}})
	if added != 2 {
		t.Fatalf("added %d edges, want 2", added)
	}
	if aug.Rel(1, 4) != RelPeer || aug.Rel(3, 4) != RelPeer {
		t.Error("expected new peer edges 1-4 and 3-4")
	}
	if aug.Rel(1, 3) != RelCustomer || aug.Rel(0, 1) != RelCustomer {
		t.Error("augmentation must preserve existing edges")
	}
	if g.Rel(1, 4) != RelNone {
		t.Error("augmentation must not mutate the original graph")
	}
	// Idempotent on re-application.
	_, added2 := AugmentIXP(aug, IXPMemberships{{1, 3, 4}})
	if added2 != 0 {
		t.Errorf("re-augmentation added %d edges, want 0", added2)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(100)
	if s.Has(5) || s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(5)
	s.Add(99)
	s.Add(5)
	if !s.Has(5) || !s.Has(99) || s.Has(6) {
		t.Error("membership wrong after Add")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	s.Remove(5)
	if s.Has(5) || s.Len() != 1 {
		t.Error("Remove failed")
	}
	var nilSet *Set
	if nilSet.Has(3) || nilSet.Len() != 0 {
		t.Error("nil set should behave as empty")
	}
	got := SetOf(10, 3, 7, 1).Members()
	want := []AS{1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestSetGrowsBeyondInitialSize(t *testing.T) {
	s := NewSet(1)
	s.Add(1000)
	if !s.Has(1000) {
		t.Error("Add beyond initial size failed")
	}
	if s.Has(999) {
		t.Error("false positive after growth")
	}
}

func TestSetUnionAndContains(t *testing.T) {
	a := SetOf(64, 1, 2, 3)
	b := SetOf(64, 3, 4)
	a.AddAll(b)
	if a.Len() != 4 || !a.Has(4) {
		t.Error("AddAll failed")
	}
	if !a.ContainsAll(b) {
		t.Error("ContainsAll(subset) = false")
	}
	if b.ContainsAll(a) {
		t.Error("ContainsAll(superset) = true")
	}
	c := a.Clone()
	c.Add(60)
	if a.Has(60) {
		t.Error("Clone shares storage with original")
	}
}

func TestSetQuickProperties(t *testing.T) {
	// Membership after Add is exactly the added elements.
	f := func(xs []uint16) bool {
		s := NewSet(8)
		want := map[AS]bool{}
		for _, x := range xs {
			v := AS(x % 5000)
			s.Add(v)
			want[v] = true
		}
		if s.Len() != len(want) {
			return false
		}
		for v := range want {
			if !s.Has(v) {
				return false
			}
		}
		for _, m := range s.Members() {
			if !want[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassifyTiers(t *testing.T) {
	// Build a small hierarchy: 0,1 are provider-free with customers
	// (T1); 2,3 transit with providers; 4 CP; 5,8 stub-x (5 becomes the
	// single "small CP" by peer-degree ranking); 6,7 stubs.
	b := NewBuilder(9)
	b.AddPeer(0, 1)
	b.AddProviderCustomer(0, 2)
	b.AddProviderCustomer(1, 3)
	b.AddProviderCustomer(2, 6)
	b.AddProviderCustomer(3, 7)
	b.AddProviderCustomer(0, 4) // CP buys from T1
	b.AddPeer(4, 2)
	b.AddProviderCustomer(2, 5)
	b.AddPeer(5, 3)
	b.AddProviderCustomer(2, 8)
	b.AddPeer(8, 3)
	g := b.MustBuild()

	tiers := Classify(g, []AS{4}, &TierConfig{NumTier2: 1, NumTier3: 1, NumSmallCP: 1})
	check := func(v AS, want Tier) {
		t.Helper()
		if got := tiers.TierOf(v); got != want {
			t.Errorf("tier of AS %d = %v, want %v", v, got, want)
		}
	}
	check(0, TierT1)
	check(1, TierT1)
	check(4, TierCP)
	check(6, TierStub)
	check(7, TierStub)
	check(5, TierSmallCP) // equal peer degree to 8; lower index wins
	check(8, TierStubX)
	// 2 has customer degree 2, 3 has 1: 2 is T2, 3 is T3 under the
	// shrunken config.
	check(2, TierT2)
	check(3, TierT3)

	total := 0
	for _, ms := range tiers.Members {
		total += len(ms)
	}
	if total != g.N() {
		t.Errorf("tier members cover %d ASes, want %d", total, g.N())
	}
}

func TestStubCustomersOf(t *testing.T) {
	b := NewBuilder(6)
	b.AddProviderCustomer(0, 1)
	b.AddProviderCustomer(0, 2) // stub of 0
	b.AddProviderCustomer(1, 3) // stub of 1
	b.AddProviderCustomer(1, 4)
	b.AddProviderCustomer(4, 5) // stub of 4 only
	g := b.MustBuild()
	got := StubCustomersOf(g, SetOf(6, 0, 1))
	want := map[AS]bool{2: true, 3: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Errorf("StubCustomersOf = %v, want stubs 2 and 3", got)
	}
}
