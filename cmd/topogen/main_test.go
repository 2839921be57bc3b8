package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sbgp/internal/asgraph"
)

// TestRunWritesParsableGraph drives the factored pipeline in-memory:
// the emitted graph must round-trip through the asgraph reader.
func TestRunWritesParsableGraph(t *testing.T) {
	var graph, stats bytes.Buffer
	if err := run(options{N: 200, Seed: 3, Out: "-"}, &graph, &stats); err != nil {
		t.Fatal(err)
	}
	g, err := asgraph.ReadFrom(bytes.NewReader(graph.Bytes()))
	if err != nil {
		t.Fatalf("emitted graph does not parse: %v", err)
	}
	if g.N() != 200 {
		t.Errorf("round-tripped graph has %d ASes, want 200", g.N())
	}
	if stats.Len() != 0 {
		t.Errorf("stats written without -stats/-json: %q", stats.String())
	}
}

// TestRunSeedZeroDistinct: -seed 0 emits a graph of its own — the CLI
// marks the seed explicit, so 0 is no longer a silent alias of 1 — and
// both streams stay deterministic.
func TestRunSeedZeroDistinct(t *testing.T) {
	emit := func(seed int64) string {
		var graph, stats bytes.Buffer
		if err := run(options{N: 200, Seed: seed, Out: "-"}, &graph, &stats); err != nil {
			t.Fatal(err)
		}
		return graph.String()
	}
	zero, one := emit(0), emit(1)
	if zero == one {
		t.Error("-seed 0 emitted the same graph as -seed 1")
	}
	if zero != emit(0) {
		t.Error("-seed 0 is not deterministic")
	}
}

// TestRunJSONStats checks the -json census: valid JSON with the
// documented fields, consistent with the emitted graph.
func TestRunJSONStats(t *testing.T) {
	var graph, statsBuf bytes.Buffer
	if err := run(options{N: 300, Seed: 5, Out: "-", JSON: true}, &graph, &statsBuf); err != nil {
		t.Fatal(err)
	}
	var s stats
	if err := json.Unmarshal(statsBuf.Bytes(), &s); err != nil {
		t.Fatalf("-json census is not valid JSON: %v\n%s", err, statsBuf.String())
	}
	g, err := asgraph.ReadFrom(bytes.NewReader(graph.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.N != g.N() || s.Seed != 5 {
		t.Errorf("census (n=%d, seed=%d) disagrees with graph (n=%d, seed=5)", s.N, s.Seed, g.N())
	}
	if s.C2PLinks != g.NumCustomerProviderLinks() || s.P2PLinks != g.NumPeerLinks() {
		t.Errorf("census links (%d, %d) disagree with graph (%d, %d)",
			s.C2PLinks, s.P2PLinks, g.NumCustomerProviderLinks(), g.NumPeerLinks())
	}
	total := 0
	for _, n := range s.Tiers {
		total += n
	}
	if total != g.N() {
		t.Errorf("tier census sums to %d, want %d", total, g.N())
	}
}

// TestRunIXPJSONStats: the augmented run reports added links in both
// the census and the graph.
func TestRunIXPJSONStats(t *testing.T) {
	var plain, plainStats bytes.Buffer
	if err := run(options{N: 300, Seed: 5, Out: "-"}, &plain, &plainStats); err != nil {
		t.Fatal(err)
	}
	var aug, augStats bytes.Buffer
	if err := run(options{N: 300, Seed: 5, Out: "-", IXP: true, JSON: true}, &aug, &augStats); err != nil {
		t.Fatal(err)
	}
	var s stats
	if err := json.Unmarshal(augStats.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	gPlain, err := asgraph.ReadFrom(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.IXPAdded <= 0 {
		t.Error("IXP augmentation reported no added links")
	}
	if s.P2PLinks != gPlain.NumPeerLinks()+s.IXPAdded {
		t.Errorf("augmented p2p count %d != plain %d + added %d",
			s.P2PLinks, gPlain.NumPeerLinks(), s.IXPAdded)
	}
	// JSON mode keeps the stats stream pure JSON (no interleaved text).
	if strings.Contains(augStats.String(), "augmented with") {
		t.Error("-json census interleaved with human-readable text")
	}
}

// TestRunTextStats keeps the human-readable census behaviour.
func TestRunTextStats(t *testing.T) {
	var graph, statsBuf bytes.Buffer
	if err := run(options{N: 200, Seed: 3, Out: "-", Stats: true}, &graph, &statsBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(statsBuf.String(), "200 ASes") {
		t.Errorf("text census missing AS count: %q", statsBuf.String())
	}
}

// TestRunRejectsUnreadableSize: -n past asgraph.MaxReadASes fails before
// writing anything, instead of emitting a graph that asgraph.ReadFrom —
// and so bgpsim -graph and a job's graph_file — would refuse.
func TestRunRejectsUnreadableSize(t *testing.T) {
	var graph, stats bytes.Buffer
	err := run(options{N: asgraph.MaxReadASes + 1, Seed: 1, Out: "-"}, &graph, &stats)
	if err == nil || !strings.Contains(err.Error(), "-AS limit") {
		t.Fatalf("run(-n %d) = %v, want the AS-limit error", asgraph.MaxReadASes+1, err)
	}
	if graph.Len() != 0 || stats.Len() != 0 {
		t.Errorf("wrote %d graph and %d stats bytes for a refused size", graph.Len(), stats.Len())
	}
}
