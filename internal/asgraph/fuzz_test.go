package asgraph

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzReadFrom throws arbitrary text at the topology parser. ReadFrom
// must never panic or tear down the process — malformed lines,
// out-of-range or int32-overflowing indices, duplicate edges, and
// absurd n directives all return errors — and any input it does accept
// must survive a serialize/reparse round trip unchanged.
func FuzzReadFrom(f *testing.F) {
	seeds := []string{
		"# comment\nn 3\np2c 0 1\np2c 0 2\np2p 1 2\n",
		"n 4\nasn 2 64512\np2c 3 2\n",
		"n 0\n",
		"",
		"p2c 0 1\n",
		"n 2\nn 2\n",
		"n 2\np2c 0 0\n",
		"n 2\np2c 0 1\np2p 0 1\n",
		"n 2\np2c 0 5\n",
		"n 2\np2c -1 0\n",
		"n 2\np2c 4294967297 0\n",
		"n 999999999999\n",
		"n 9000000\n",
		"n 2\nasn 0 99999999999\n",
		"n 2\nbogus 0 1\n",
		"n 2\np2c 0\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadFrom(strings.NewReader(input))
		if err != nil {
			return
		}
		if g.N() > MaxReadASes {
			t.Fatalf("accepted %d ASes past the MaxReadASes cap", g.N())
		}
		// Round trip: anything accepted serializes and reparses to the
		// same topology, byte for byte.
		var out bytes.Buffer
		if err := WriteTo(&out, g); err != nil {
			t.Fatalf("serializing an accepted graph: %v", err)
		}
		g2, err := ReadFrom(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reparsing serialized output: %v\n%s", err, out.String())
		}
		if g2.N() != g.N() || g2.NumCustomerProviderLinks() != g.NumCustomerProviderLinks() ||
			g2.NumPeerLinks() != g.NumPeerLinks() {
			t.Fatalf("round trip changed the graph: (%d ASes, %d c2p, %d p2p) -> (%d, %d, %d)",
				g.N(), g.NumCustomerProviderLinks(), g.NumPeerLinks(),
				g2.N(), g2.NumCustomerProviderLinks(), g2.NumPeerLinks())
		}
		var out2 bytes.Buffer
		if err := WriteTo(&out2, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("serialization is not a fixed point of the round trip")
		}
	})
}

// TestReadFromRejectsHostileInputs pins the parser hardening the fuzz
// target relies on: the n cap and the int32 index overflow check.
func TestReadFromRejectsHostileInputs(t *testing.T) {
	for _, input := range []string{
		"n 4194305\n",             // past MaxReadASes: would pre-commit GBs
		"n 2\np2c 4294967298 0\n", // wraps to AS 2 if truncated to int32
		"n 2\np2p 0 8589934593\n", // wraps to AS 1
		"n 2\nasn 0 4294967296\n", // ASN value overflows int32
	} {
		if g, err := ReadFrom(strings.NewReader(input)); err == nil {
			t.Errorf("accepted %q as a %d-AS graph", input, g.N())
		}
	}
	// The cap itself is inclusive.
	if _, err := ReadFrom(strings.NewReader("n 4194304\n")); err != nil {
		t.Errorf("rejected a graph at exactly MaxReadASes: %v", err)
	}
}

// FuzzBuild checks Builder.Build against referenceBuild, an independent
// map-and-sort builder. The first byte picks n ≤ 64; each following
// three-byte group adds one edge — a customer-to-provider edge if its
// first byte is even, a peer edge if odd — between indices in [-1, n],
// so repeats, conflicting relations, both orientations of a peer pair,
// self-loops and out-of-range indices all occur. Either both builders
// fail with the same error text, or they agree on every list, both edge
// counts, every degree and Rel for every ordered pair.
func FuzzBuild(f *testing.F) {
	// An index byte c means AS c%(n+2)−1, so byte a+1 is AS a.
	for _, seed := range [][]byte{
		{4, 0, 1, 2, 0, 2, 3, 1, 3, 4},          // 0 provides 1 provides 2; peers 2–3
		{3, 0, 1, 2, 0, 1, 2},                   // the same c2p edge twice
		{3, 0, 1, 2, 0, 2, 1},                   // c2p both ways
		{3, 0, 1, 2, 1, 1, 2},                   // c2p and peer on one pair
		{3, 1, 1, 2, 1, 2, 1},                   // a peer pair in both orientations
		{3, 0, 1, 1},                            // c2p self-loop
		{3, 1, 2, 2},                            // peer self-loop
		{3, 0, 0, 1},                            // index −1
		{3, 0, 4, 1},                            // index n
		{0},                                     // no ASes
		{64, 0, 11, 21, 1, 21, 31, 0, 11, 31},   // sparse 64-AS graph
		{2, 0, 1, 2, 1, 1, 2, 0, 2, 1, 1, 2, 1}, // every edge of one pair
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 65
		index := func(c byte) AS { return AS(int(c)%(n+2) - 1) }
		b := NewBuilder(n)
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			if ops[0]%2 == 0 {
				b.AddProviderCustomer(index(ops[1]), index(ops[2]))
			} else {
				b.AddPeer(index(ops[1]), index(ops[2]))
			}
		}
		want, wantC2P, wantP2P, wantErr := referenceBuild(b)
		g, err := b.Build()
		if err != nil || wantErr != nil {
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("Build error %v, reference error %v", err, wantErr)
			}
			return
		}
		if g.N() != n || g.NumCustomerProviderLinks() != wantC2P || g.NumPeerLinks() != wantP2P {
			t.Fatalf("Build: %d ASes, %d c2p, %d p2p; reference: %d, %d, %d",
				g.N(), g.NumCustomerProviderLinks(), g.NumPeerLinks(), n, wantC2P, wantP2P)
		}
		for v := AS(0); int(v) < n; v++ {
			got := [3][]AS{g.Customers(v), g.Peers(v), g.Providers(v)}
			degs := [3]int{g.CustomerDegree(v), g.PeerDegree(v), g.ProviderDegree(v)}
			for k := range got {
				if !slices.Equal(got[k], want[k][v]) || (got[k] == nil) != (len(want[k][v]) == 0) {
					t.Fatalf("AS %d list %d = %v, reference %v", v, k, got[k], want[k][v])
				}
				if degs[k] != len(want[k][v]) || cap(got[k]) != len(got[k]) {
					t.Fatalf("AS %d list %d: degree %d, cap %d, reference length %d", v, k, degs[k], cap(got[k]), len(want[k][v]))
				}
			}
			if g.Degree(v) != len(got[0])+len(got[1])+len(got[2]) {
				t.Fatalf("AS %d: Degree %d disagrees with its lists", v, g.Degree(v))
			}
			for u := AS(0); int(u) < n; u++ {
				rel := RelNone
				for k, r := range [3]Rel{RelCustomer, RelPeer, RelProvider} {
					if slices.Contains(want[k][v], u) {
						rel = r
					}
				}
				if g.Rel(v, u) != rel {
					t.Fatalf("Rel(%d, %d) = %v, reference %v", v, u, g.Rel(v, u), rel)
				}
			}
		}
	})
}

// referenceBuild builds b's edges the obvious way — a map of seen pairs
// rejects the first repeat, each end is appended to its AS's list, and
// every list is sorted — into customer, peer and provider lists per AS.
func referenceBuild(b *Builder) (lists [3][][]AS, c2p, p2p int, err error) {
	if b.err != nil {
		return lists, 0, 0, b.err
	}
	for k := range lists {
		lists[k] = make([][]AS, b.n)
	}
	type pair struct{ x, y AS }
	seen := map[pair]bool{}
	for _, e := range b.edges {
		k := pair{min(e.a, e.b), max(e.a, e.b)}
		if seen[k] {
			return lists, 0, 0, fmt.Errorf("duplicate or conflicting edge between AS %d and AS %d", e.a, e.b)
		}
		seen[k] = true
		if e.peer {
			lists[1][e.a] = append(lists[1][e.a], e.b)
			lists[1][e.b] = append(lists[1][e.b], e.a)
			p2p++
		} else {
			lists[0][e.a] = append(lists[0][e.a], e.b)
			lists[2][e.b] = append(lists[2][e.b], e.a)
			c2p++
		}
	}
	for _, kind := range lists {
		for _, l := range kind {
			slices.Sort(l)
		}
	}
	return lists, c2p, p2p, nil
}
