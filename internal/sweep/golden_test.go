package sweep

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenGrid is a fixed, fully deterministic grid: all three models,
// three deployments (baseline, all non-stubs, every even AS), sampled
// pairs, per-destination series.
func goldenGrid(g *asgraph.Graph, workers int, attack core.Attack) *Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 6, 8)
	evens := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 2 {
		evens.Add(asgraph.AS(v))
	}
	return &Grid{
		Deployments: []Deployment{
			{Name: "baseline"},
			{Name: "nonstubs", Dep: &core.Deployment{Full: asgraph.SetOf(g.N(), asgraph.NonStubs(g)...)}},
			{Name: "evens", Dep: &core.Deployment{Full: evens}},
		},
		Attackers:    M,
		Destinations: D,
		PerDest:      true,
		Attack:       attack,
		Workers:      workers,
	}
}

// TestGoldenSweepJSON pins the serialized sweep output of every shipped
// attack seeder to a golden file — the one-hop golden was captured from
// the pre-Attack-interface engine, so the default strategy is pinned
// bit-for-bit to the original hard-coded seeding. A one-worker Evaluate
// in either scheduling mode must land on it (-update rewrites it from
// the first), and so must the sweep matrix's every driver, worker count
// and shard size.
func TestGoldenSweepJSON(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	cases := []struct {
		name   string
		file   string
		attack core.Attack
	}{
		// nil (not OneHopHijack{}) matches the engine's default path and
		// keeps the pre-interface golden bytes authoritative.
		{"one-hop", "golden_onehop.json", nil},
		{"none", "golden_none.json", core.NoAttack{}},
		{"pad-3", "golden_pad3.json", core.PathPadding{Hops: 3}},
		{"origin-spoof", "golden_originspoof.json", core.OriginSpoof{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			for _, mode := range []IncrementalMode{IncrementalAuto, IncrementalOff} {
				gr := goldenGrid(g, 1, tc.attack)
				gr.Incremental = mode
				got := resultJSON(t, mustEvaluate(gr, g), nil)
				if *update && mode == IncrementalAuto {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to regenerate): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("incremental=%v sweep JSON diverges from golden %s:\n--- got ---\n%s", mode, path, got)
				}
			}
			requireMatrix(t, 5, "counts/golden-"+tc.name+"/*")
		})
	}
}

// nestedGrid is a rollout-shaped grid: a chain of strictly nested
// deployments (growing non-stub prefixes plus their stub customers)
// and a second chain of simplex variants, the shape the incremental
// scheduler is built for.
func nestedGrid(g *asgraph.Graph, workers int, mode IncrementalMode) *Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 6, 8)
	nonStubs := asgraph.NonStubs(g)
	deployments := []Deployment{{Name: "baseline"}}
	for _, k := range []int{3, 9, 18, 30} {
		anchors := asgraph.SetOf(g.N(), nonStubs[:k]...)
		stubs := asgraph.StubCustomersOf(g, anchors)
		full := anchors.Clone()
		for _, v := range stubs {
			full.Add(v)
		}
		deployments = append(deployments,
			Deployment{Name: fmt.Sprintf("step%d", k), Dep: &core.Deployment{Full: full}},
			Deployment{Name: fmt.Sprintf("step%d+simplex", k), Dep: &core.Deployment{
				Full:    anchors.Clone(),
				Simplex: asgraph.SetOf(g.N(), stubs...),
			}},
		)
	}
	return &Grid{
		Deployments:  deployments,
		Attackers:    M,
		Destinations: D,
		PerDest:      true,
		Incremental:  mode,
		Workers:      workers,
	}
}

// TestGoldenNestedDeployments pins the nested-deployment (rollout-
// shaped) grid: the non-incremental evaluation is the golden authority
// (-update rewrites it), and the sweep matrix's incremental scheduler —
// on every driver, worker count and shard size, where shard size 1 cuts
// every chain at every step — must reproduce it byte for byte.
func TestGoldenNestedDeployments(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	path := filepath.Join("testdata", "golden_nested.json")
	got := resultJSON(t, mustEvaluate(nestedGrid(g, 1, IncrementalOff), g), nil)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("non-incremental nested grid diverges from golden:\n--- got ---\n%s", got)
	}
	requireMatrix(t, 5, "counts/golden-nested/*")
}

// TestGoldenOriginSpoofReduction pins the Section 4.2 reduction at the
// golden-file level: origin-spoof is RPKI-filtered everywhere, so its
// golden must equal the no-attack golden byte for byte apart from the
// serialized attack name.
func TestGoldenOriginSpoofReduction(t *testing.T) {
	spoof, err := os.ReadFile(filepath.Join("testdata", "golden_originspoof.json"))
	if err != nil {
		t.Fatal(err)
	}
	none, err := os.ReadFile(filepath.Join("testdata", "golden_none.json"))
	if err != nil {
		t.Fatal(err)
	}
	renamed := bytes.Replace(spoof, []byte(`"attack": "origin-spoof"`), []byte(`"attack": "none"`), 1)
	if bytes.Equal(renamed, spoof) {
		t.Fatal("origin-spoof golden does not name its attack")
	}
	if !bytes.Equal(renamed, none) {
		t.Error("origin-spoof golden differs from the no-attack golden beyond the attack name")
	}
}
