package sbgp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sbgp"
	"sbgp/internal/asgraph"
)

// sampleSpec is a spec exercising most wire fields at a size the tests
// can afford to Simulate.
func sampleSpec() *sbgp.JobSpec {
	return &sbgp.JobSpec{
		Name:     "sample",
		Topology: sbgp.TopologySpec{N: 300, Seed: 7},
		Models:   []int{2, 3},
		LPK:      2,
		Deployments: []sbgp.JobDeployment{
			{Named: "t1t2"},
			{Name: "everyone", Named: "nonstubs"},
			{Name: "handpicked", Spec: &sbgp.DeploymentSpec{NumTier2: 5, IncludeStubs: true}},
		},
		Attack:      "pad-2",
		Pairs:       sbgp.PairSpec{MaxM: 6, MaxD: 8},
		Incremental: "on",
		ShardSize:   64,
		Workers:     2,
	}
}

// TestJobSpecJSONRoundTrip pins the wire format: encode → strict decode
// → canonical equality, for both a sampled and a full-enumeration spec.
func TestJobSpecJSONRoundTrip(t *testing.T) {
	specs := map[string]*sbgp.JobSpec{
		"sampled": sampleSpec(),
		"full": {
			Topology: sbgp.TopologySpec{GraphFile: "testdata/g.txt"},
			Pairs:    sbgp.PairSpec{Full: true},
			Attack:   "none",
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := spec.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := sbgp.ReadJobSpec(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadJobSpec: %v\n%s", err, buf.String())
			}
			if !reflect.DeepEqual(got.Canonical(), spec.Canonical()) {
				t.Errorf("round trip changed the spec:\n got %+v\nwant %+v", got.Canonical(), spec.Canonical())
			}
		})
	}
}

// TestJobSpecStrictDecode pins the strict wire contract: unknown
// fields, trailing data, and invalid specs all fail loudly.
func TestJobSpecStrictDecode(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown field", `{"version":1,"topology":{"n":100,"seed":1},"pairs":{},"shards":9}`, "unknown field"},
		{"trailing data", `{"version":1,"topology":{"n":100,"seed":1},"pairs":{}} {}`, "trailing data"},
		{"future version", `{"version":99,"topology":{"n":100,"seed":1},"pairs":{}}`, "version 99"},
		{"oversized topology", `{"version":1,"topology":{"n":2000000000,"seed":1},"pairs":{}}`, "4194304-AS limit"},
		{"oversized lpk", `{"version":1,"topology":{"n":100,"seed":1},"lpk":50000000,"pairs":{}}`, "lpk=50000000 is outside [0, 64]"},
		{"lpk past the bound", `{"version":1,"topology":{"n":100,"seed":1},"lpk":65,"pairs":{}}`, "outside [0, 64]"},
		{"negative lpk", `{"version":1,"topology":{"n":100,"seed":1},"lpk":-1,"pairs":{}}`, "outside [0, 64]"},
		{"oversized workers", `{"version":1,"topology":{"n":100,"seed":1},"pairs":{},"workers":1025}`, "workers=1025 is outside [0, 1024]"},
		{"negative workers", `{"version":1,"topology":{"n":100,"seed":1},"pairs":{},"workers":-1}`, "outside [0, 1024]"},
		{"both sources", `{"version":1,"topology":{"n":100,"seed":1,"graph_file":"g"},"pairs":{}}`, "both"},
		{"full with caps", `{"version":1,"topology":{"seed":1},"pairs":{"full":true,"max_m":3}}`, "max_m"},
		{"bad model", `{"version":1,"topology":{"seed":1},"models":[4],"pairs":{}}`, "model 4"},
		{"dup model", `{"version":1,"topology":{"seed":1},"models":[2,2],"pairs":{}}`, "duplicate"},
		{"bad named", `{"version":1,"topology":{"seed":1},"deployments":[{"named":"tier9"}],"pairs":{}}`, `"tier9"`},
		{"baseline clash", `{"version":1,"topology":{"seed":1},"deployments":[{"name":"baseline","named":"t2"}],"pairs":{}}`, "duplicate"},
		{"nameless spec", `{"version":1,"topology":{"seed":1},"deployments":[{"spec":{"num_tier2":5}}],"pairs":{}}`, "no name"},
		{"named and spec", `{"version":1,"topology":{"seed":1},"deployments":[{"named":"t2","spec":{}}],"pairs":{}}`, "both"},
		{"bad attack", `{"version":1,"topology":{"seed":1},"attack":"teleport","pairs":{}}`, `"teleport"`},
		{"bad incremental", `{"version":1,"topology":{"seed":1},"incremental":"maybe","pairs":{}}`, `"maybe"`},
		{"resume sans checkpoint", `{"version":1,"topology":{"seed":1},"pairs":{},"resume":true}`, "checkpoint"},
		{"ixp on file", `{"version":1,"topology":{"graph_file":"g","ixp":true},"pairs":{}}`, "ixp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sbgp.ReadJobSpec(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("decode accepted %s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The bound itself is a valid depth.
	if _, err := sbgp.ReadJobSpec(strings.NewReader(`{"version":1,"topology":{"n":100,"seed":1},"lpk":64,"pairs":{}}`)); err != nil {
		t.Errorf("lpk at the bound rejected: %v", err)
	}
}

// TestJobSpecCanonicalDefaults pins the default resolution: a minimal
// spec canonicalizes to the documented defaults, and version 0 means
// current.
func TestJobSpecCanonicalDefaults(t *testing.T) {
	got, err := sbgp.ReadJobSpec(strings.NewReader(`{"topology":{"seed":1},"pairs":{},"attack":"hijack","incremental":"true"}`))
	if err != nil {
		t.Fatal(err)
	}
	c := got.Canonical()
	if c.Version != sbgp.JobSpecVersion {
		t.Errorf("canonical version = %d, want %d", c.Version, sbgp.JobSpecVersion)
	}
	if c.Topology.N != 4000 {
		t.Errorf("canonical topology size = %d, want 4000", c.Topology.N)
	}
	if !reflect.DeepEqual(c.Models, []int{1, 2, 3}) {
		t.Errorf("canonical models = %v, want [1 2 3]", c.Models)
	}
	// "true" (like "on") is accepted input from the time the mode had a
	// third state; its canonical form is "auto".
	if c.Attack != "one-hop" || c.Incremental != "auto" {
		t.Errorf("canonical aliases = (%q, %q), want (one-hop, auto)", c.Attack, c.Incremental)
	}
	if c.Pairs.MaxM != sbgp.DefaultMaxM || c.Pairs.MaxD != sbgp.DefaultMaxD {
		t.Errorf("canonical pair caps = (%d, %d), want (%d, %d)",
			c.Pairs.MaxM, c.Pairs.MaxD, sbgp.DefaultMaxM, sbgp.DefaultMaxD)
	}
}

// TestFromJobSpecRoundTrip pins the spec ↔ scenario correspondence:
// FromJobSpec(spec).Simulate().JobSpec() returns the canonical form of
// spec, so the wire format and the scenario options cannot drift.
func TestFromJobSpecRoundTrip(t *testing.T) {
	spec := sampleSpec()
	sc, err := sbgp.FromJobSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sc.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.JobSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec.Canonical()) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(spec.Canonical())
		t.Errorf("spec → scenario → spec changed the job:\n got %s\nwant %s", g, w)
	}
	// Canonical is idempotent, so re-exporting cannot drift either.
	if !reflect.DeepEqual(got.Canonical(), got) {
		t.Error("exported spec is not canonical")
	}
}

// TestJobSpecNotRepresentable pins the deferred-error contract: a
// scenario using capabilities the wire format cannot carry still
// Simulates, and only JobSpec() fails, with a descriptive error.
func TestJobSpecNotRepresentable(t *testing.T) {
	cases := []struct {
		name string
		opt  sbgp.Option
		want string
	}{
		{"in-memory graph", sbgp.WithGraph(lineGraph(t, 4), nil), "in-memory"},
		{"exotic params", sbgp.WithTopologyParams(sbgp.TopologyParams{N: 200, Seed: 1, SeedSet: true, NumIXPs: 2}), "generator parameters"},
		{"resolved tiebreak", sbgp.WithResolvedTiebreak(), "tiebreak"},
		{"prebuilt deployment", sbgp.WithPrebuiltDeployment("mine", &sbgp.Deployment{Full: asgraph.SetOf(200, 0, 1)}), `prebuilt deployment "mine"`},
		{"custom attack", sbgp.WithAttack(renamedAttack{}), `attack "teleport"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := []sbgp.Option{tc.opt}
			if tc.name != "in-memory graph" && tc.name != "exotic params" {
				opts = append(opts, sbgp.WithGeneratedTopology(200, 1))
			}
			sim, err := sbgp.NewScenario(opts...).Simulate()
			if err != nil {
				t.Fatalf("Simulate: %v", err)
			}
			if _, err := sim.JobSpec(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("JobSpec error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// renamedAttack is a custom strategy under a name ParseAttack does not
// know — runnable, but not something a spec file can carry.
type renamedAttack struct{ sbgp.OneHopHijack }

func (renamedAttack) Name() string { return "teleport" }

// lineGraph builds a provider chain 0 → 1 → ... → n-1 (0 on top).
func lineGraph(t *testing.T, n int) *sbgp.Graph {
	t.Helper()
	b := asgraph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddProviderCustomer(sbgp.AS(i), sbgp.AS(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOptionsWriteTheSpec pins "the spec is the scenario's
// configuration": every wire-carried With* option, applied alone, yields
// a simulation whose JobSpec() is the canonical form of the literal spec
// with just that field set — and FromJobSpec of that literal round-trips
// to the same value — so a second storage location for any option cannot
// reappear unnoticed. The zero-seed rules ride along as cases: an option
// chain that never names a seed means stream 1, while the wire's seed 0
// is an honest stream.
func TestOptionsWriteTheSpec(t *testing.T) {
	const n = 120
	small := sbgp.WithGeneratedTopology(n, 1)
	topo := sbgp.TopologySpec{N: n, Seed: 1}
	graphFile := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(graphFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := asgraph.WriteTo(f, lineGraph(t, 6)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	pad2, err := sbgp.ParseAttack("pad-2")
	if err != nil {
		t.Fatal(err)
	}
	handpicked := sbgp.DeploymentSpec{NumTier2: 5, IncludeStubs: true}
	cases := []struct {
		name string
		opts []sbgp.Option
		want sbgp.JobSpec
	}{
		// The zero scenario never names a seed, so its stream is 1 (at
		// the default 4000 ASes) — not the wire's honest "seed": 0, which
		// the explicit-seed-0 cases below keep at 0 both ways.
		{"NewScenario", nil, sbgp.JobSpec{Topology: sbgp.TopologySpec{Seed: 1}}},
		{"WithGeneratedTopology", []sbgp.Option{sbgp.WithGeneratedTopology(n, 7)},
			sbgp.JobSpec{Topology: sbgp.TopologySpec{N: n, Seed: 7}}},
		{"WithGeneratedTopology seed 0", []sbgp.Option{sbgp.WithGeneratedTopology(n, 0)},
			sbgp.JobSpec{Topology: sbgp.TopologySpec{N: n, Seed: 0}}},
		{"WithTopologyParams unset seed", []sbgp.Option{sbgp.WithTopologyParams(sbgp.TopologyParams{N: n})},
			sbgp.JobSpec{Topology: sbgp.TopologySpec{N: n, Seed: 1}}},
		{"WithTopologyParams explicit seed 0", []sbgp.Option{sbgp.WithTopologyParams(sbgp.TopologyParams{N: n, SeedSet: true})},
			sbgp.JobSpec{Topology: sbgp.TopologySpec{N: n, Seed: 0}}},
		{"WithGraphFile", []sbgp.Option{sbgp.WithGraphFile(graphFile)},
			sbgp.JobSpec{Topology: sbgp.TopologySpec{GraphFile: graphFile}}},
		{"WithIXPAugmentation", []sbgp.Option{small, sbgp.WithIXPAugmentation()},
			sbgp.JobSpec{Topology: sbgp.TopologySpec{N: n, Seed: 1, IXP: true}}},
		{"WithModels", []sbgp.Option{small, sbgp.WithModels(sbgp.Sec2nd, sbgp.Sec1st)},
			sbgp.JobSpec{Topology: topo, Models: []int{2, 1}}},
		{"WithLocalPref", []sbgp.Option{small, sbgp.WithLocalPref(sbgp.LP2)},
			sbgp.JobSpec{Topology: topo, LPK: 2}},
		{"WithDeployment", []sbgp.Option{small, sbgp.WithDeployment("handpicked", handpicked)},
			sbgp.JobSpec{Topology: topo, Deployments: []sbgp.JobDeployment{{Name: "handpicked", Spec: &handpicked}}}},
		{"WithNamedDeployment", []sbgp.Option{small, sbgp.WithNamedDeployment("t2")},
			sbgp.JobSpec{Topology: topo, Deployments: []sbgp.JobDeployment{{Named: "t2"}}}},
		{"WithNamedDeployment none", []sbgp.Option{small, sbgp.WithNamedDeployment("none")},
			sbgp.JobSpec{Topology: topo}},
		{"WithNamedDeploymentAs", []sbgp.Option{small, sbgp.WithNamedDeploymentAs("everyone", "nonstubs")},
			sbgp.JobSpec{Topology: topo, Deployments: []sbgp.JobDeployment{{Name: "everyone", Named: "nonstubs"}}}},
		{"WithFullEnumeration", []sbgp.Option{small, sbgp.WithFullEnumeration()},
			sbgp.JobSpec{Topology: topo, Pairs: sbgp.PairSpec{Full: true}}},
		{"WithPairSampling", []sbgp.Option{small, sbgp.WithPairSampling(6, 8)},
			sbgp.JobSpec{Topology: topo, Pairs: sbgp.PairSpec{MaxM: 6, MaxD: 8}}},
		{"WithAttack", []sbgp.Option{small, sbgp.WithAttack(pad2)},
			sbgp.JobSpec{Topology: topo, Attack: "pad-2"}},
		{"WithIncremental", []sbgp.Option{small, sbgp.WithIncremental(sbgp.IncrementalOff)},
			sbgp.JobSpec{Topology: topo, Incremental: "off"}},
		{"WithWorkers", []sbgp.Option{small, sbgp.WithWorkers(3)},
			sbgp.JobSpec{Topology: topo, Workers: 3}},
		{"WithShardSize", []sbgp.Option{small, sbgp.WithShardSize(64)},
			sbgp.JobSpec{Topology: topo, ShardSize: 64}},
		{"WithCheckpoint", []sbgp.Option{small, sbgp.WithCheckpoint("sweep.ckpt")},
			sbgp.JobSpec{Topology: topo, Checkpoint: "sweep.ckpt"}},
		{"WithResume", []sbgp.Option{small, sbgp.WithCheckpoint("sweep.ckpt"), sbgp.WithResume()},
			sbgp.JobSpec{Topology: topo, Checkpoint: "sweep.ckpt", Resume: true}},
		// Options outside the wire format leave the spec alone.
		{"WithModel", []sbgp.Option{small, sbgp.WithModel(sbgp.Sec1st)}, sbgp.JobSpec{Topology: topo}},
		{"WithContext", []sbgp.Option{small, sbgp.WithContext(context.Background())}, sbgp.JobSpec{Topology: topo}},
	}
	jobSpecOf := func(t *testing.T, sc *sbgp.Scenario) *sbgp.JobSpec {
		t.Helper()
		sim, err := sc.Simulate()
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		got, err := sim.JobSpec()
		if err != nil {
			t.Fatalf("JobSpec: %v", err)
		}
		return got
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.want.Canonical()
			if got := jobSpecOf(t, sbgp.NewScenario(tc.opts...)); !reflect.DeepEqual(got, want) {
				g, _ := json.Marshal(got)
				w, _ := json.Marshal(want)
				t.Errorf("options → spec:\n got %s\nwant %s", g, w)
			}
			sc, err := sbgp.FromJobSpec(&tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if got := jobSpecOf(t, sc); !reflect.DeepEqual(got, want) {
				g, _ := json.Marshal(got)
				w, _ := json.Marshal(want)
				t.Errorf("spec → scenario → spec:\n got %s\nwant %s", g, w)
			}
		})
	}
}
