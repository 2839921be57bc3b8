package topogen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"testing"

	"sbgp/internal/asgraph"
)

func TestGenerateShape(t *testing.T) {
	g, meta, err := Generate(Params{N: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3000 {
		t.Fatalf("N = %d, want 3000", g.N())
	}
	if err := asgraph.Validate(g); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	if !asgraph.Connected(g) {
		t.Fatal("generated graph disconnected")
	}

	// Tier 1 clique: exactly NumTier1 provider-free transit ASes, all
	// mutually peered.
	var t1 []asgraph.AS
	for v := asgraph.AS(0); int(v) < g.N(); v++ {
		if g.ProviderDegree(v) == 0 && g.CustomerDegree(v) > 0 {
			t1 = append(t1, v)
		}
	}
	if len(t1) != 13 {
		t.Fatalf("%d provider-free transit ASes, want 13", len(t1))
	}
	for i := range t1 {
		for j := i + 1; j < len(t1); j++ {
			if g.Rel(t1[i], t1[j]) != asgraph.RelPeer {
				t.Errorf("Tier 1s %d and %d not peered", t1[i], t1[j])
			}
		}
	}

	// Stub share near the UCLA value (85%): generous tolerance.
	stubs := 0
	for v := asgraph.AS(0); int(v) < g.N(); v++ {
		if g.IsAnyStub(v) {
			stubs++
		}
	}
	frac := float64(stubs) / float64(g.N())
	if frac < 0.75 || frac > 0.92 {
		t.Errorf("stub fraction = %.2f, want ≈0.85", frac)
	}

	// Peer/customer edge ratio near 0.85.
	ratio := float64(g.NumPeerLinks()) / float64(g.NumCustomerProviderLinks())
	if ratio < 0.6 || ratio > 1.0 {
		t.Errorf("peer/c2p ratio = %.2f, want ≈0.85", ratio)
	}

	// CPs: designated, no customers, several providers, heavy peering.
	if len(meta.CPs) != 17 {
		t.Fatalf("%d CPs, want 17", len(meta.CPs))
	}
	for _, cp := range meta.CPs {
		if g.CustomerDegree(cp) != 0 {
			t.Errorf("CP %d has customers", cp)
		}
		if g.ProviderDegree(cp) < 2 {
			t.Errorf("CP %d has %d providers, want ≥2", cp, g.ProviderDegree(cp))
		}
		if g.PeerDegree(cp) < 5 {
			t.Errorf("CP %d has peer degree %d, want high", cp, g.PeerDegree(cp))
		}
	}

	// Mean providers per non-Tier-1 AS near the configured 1.9.
	mean := float64(g.NumCustomerProviderLinks()) / float64(g.N()-len(t1))
	if mean < 1.4 || mean > 2.4 {
		t.Errorf("mean providers = %.2f, want ≈1.9", mean)
	}

	if len(meta.IXPs) == 0 {
		t.Error("no IXPs generated")
	}
	for _, members := range meta.IXPs {
		if len(members) < 2 {
			t.Error("IXP with fewer than 2 members")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{N: 500, Seed: 9}
	g1, m1, _ := Generate(p)
	g2, m2, _ := Generate(p)
	if g1.NumCustomerProviderLinks() != g2.NumCustomerProviderLinks() ||
		g1.NumPeerLinks() != g2.NumPeerLinks() {
		t.Fatal("same seed produced different edge counts")
	}
	for v := asgraph.AS(0); int(v) < g1.N(); v++ {
		for _, u := range g1.Customers(v) {
			if g2.Rel(v, u) != asgraph.RelCustomer {
				t.Fatalf("same seed produced different edges at AS %d", v)
			}
		}
	}
	if len(m1.IXPs) != len(m2.IXPs) {
		t.Fatal("same seed produced different IXPs")
	}
	g3, _, _ := Generate(Params{N: 500, Seed: 10})
	if g3.NumPeerLinks() == g1.NumPeerLinks() && g3.NumCustomerProviderLinks() == g1.NumCustomerProviderLinks() {
		t.Log("different seeds produced identical edge counts (possible but suspicious)")
	}
}

// graphFingerprint is a cheap structural digest for distinguishing
// generated graphs in the seed tests.
func graphFingerprint(g *asgraph.Graph) string {
	var b strings.Builder
	for v := asgraph.AS(0); int(v) < g.N(); v++ {
		fmt.Fprintf(&b, "%d:%v;%v|", v, g.Providers(v), g.Peers(v))
	}
	return b.String()
}

// TestGenerateSeedZero: with SeedSet, seed 0 is a deterministic stream
// of its own, distinct from seed 1; without SeedSet the zero value
// keeps its documented default (seed 1), so existing callers are
// unaffected.
func TestGenerateSeedZero(t *testing.T) {
	p0 := Params{N: 300, Seed: 0, SeedSet: true}
	a, _, err := Generate(p0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(p0)
	if err != nil {
		t.Fatal(err)
	}
	if graphFingerprint(a) != graphFingerprint(b) {
		t.Fatal("seed 0 is not deterministic")
	}
	one, _, err := Generate(Params{N: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if graphFingerprint(a) == graphFingerprint(one) {
		t.Error("explicit seed 0 produced the same graph as seed 1 — the zero stream is still aliased")
	}
	legacy, _, err := Generate(Params{N: 300, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if graphFingerprint(legacy) != graphFingerprint(one) {
		t.Error("zero-value Params no longer defaults to seed 1")
	}
}

// TestGenerateDigest pins the generated topologies themselves: per size,
// one SHA-256 over seeds 0–5 of every AS's three adjacency lists (read
// through the accessors only), the edge counts and Meta, for the plain
// graph and its asgraph.AugmentIXP variant. A change to the generator's
// draws, to Builder.Build or to AugmentIXP moves it. The literals were
// computed with the map-and-sort Build and the binary-search draws that
// the linear-time ones replaced; never regenerate them to make a
// refactor pass.
func TestGenerateDigest(t *testing.T) {
	want := map[int]string{
		60:    "579ed7ed9883db50776031568cd0f7fc80cfea765425bc922d9efa969dc802df",
		400:   "c335b2e0997467ff35a2fa57ac5f37b09a09857ff10213d521a0f98edd1cd9b7",
		4000:  "2d09bf53c9964dcac1bdb005309aa404732c57911678169677f97717ad2897e8",
		12000: "3bc131058f0dce4cfce500f24fe6c16988a2290a91f5ca09d45c5604b43a726c",
	}
	for _, n := range []int{60, 400, 4000, 12000} {
		h := sha256.New()
		for seed := int64(0); seed <= 5; seed++ {
			g, meta, err := Generate(Params{N: n, Seed: seed, SeedSet: true})
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			aug, added := asgraph.AugmentIXP(g, meta.IXPs)
			digestGraph(h, g)
			digestGraph(h, aug)
			var buf []byte
			buf = binary.LittleEndian.AppendUint32(buf, uint32(added))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.NumTransit))
			buf = appendList(buf, meta.CPs)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta.IXPs)))
			for _, members := range meta.IXPs {
				buf = appendList(buf, members)
			}
			h.Write(buf)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[n] {
			t.Errorf("n=%d: topology digest %s, want %s", n, got, want[n])
		}
	}
}

// digestGraph feeds g's size, edge counts and every adjacency list into h.
func digestGraph(h hash.Hash, g *asgraph.Graph) {
	var buf []byte
	for _, x := range []int{g.N(), g.NumCustomerProviderLinks(), g.NumPeerLinks()} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	for v := asgraph.AS(0); int(v) < g.N(); v++ {
		buf = appendList(buf, g.Customers(v))
		buf = appendList(buf, g.Peers(v))
		buf = appendList(buf, g.Providers(v))
	}
	h.Write(buf)
}

// appendList appends a length-prefixed AS list, so adjacent lists cannot
// trade members without changing the bytes.
func appendList(buf []byte, l []asgraph.AS) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l)))
	for _, v := range l {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

func TestGenerateRejectsTinyN(t *testing.T) {
	if _, _, err := Generate(Params{N: 20}); err == nil {
		t.Error("Generate accepted N too small for the Tier-1 clique and CPs")
	}
}

// TestGenerateRejectsUnreadableN: a topology past asgraph.MaxReadASes
// could be written out but never read back (cmd/topogen's output as a
// graph file), so Generate refuses it before generating anything and
// names the limit.
func TestGenerateRejectsUnreadableN(t *testing.T) {
	_, _, err := Generate(Params{N: asgraph.MaxReadASes + 1})
	want := fmt.Sprintf("topology size n=%d exceeds the %d-AS limit", asgraph.MaxReadASes+1, asgraph.MaxReadASes)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Generate(N=MaxReadASes+1) = %v, want an error containing %q", err, want)
	}
}

func TestGenerateSmallGraphsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g, _, err := Generate(Params{N: 120, Seed: seed, TransitFrac: 0.3, NumCPs: 3, NumIXPs: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := asgraph.Validate(g); err != nil {
			t.Fatalf("seed %d: invalid graph: %v", seed, err)
		}
		if !asgraph.Connected(g) {
			t.Fatalf("seed %d: disconnected graph", seed)
		}
	}
}

func TestIXPAugmentationGrowsPeering(t *testing.T) {
	g, meta, _ := Generate(Params{N: 1000, Seed: 3})
	aug, added := asgraph.AugmentIXP(g, meta.IXPs)
	if added <= 0 {
		t.Fatal("IXP augmentation added no edges")
	}
	if aug.NumPeerLinks() != g.NumPeerLinks()+added {
		t.Errorf("peer links %d, want %d", aug.NumPeerLinks(), g.NumPeerLinks()+added)
	}
	if aug.NumCustomerProviderLinks() != g.NumCustomerProviderLinks() {
		t.Error("augmentation changed customer-provider links")
	}
}
