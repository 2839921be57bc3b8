package sweep

// The signed-delta forest schedule's fixture grid and the stability of
// its plan. The planner-level forest invariants live in
// incremental_test.go, the schedule's end-to-end equivalence in the
// sweep matrix (oracle_test.go), and the refusal of its checkpoints
// under the identity layout in TestParentCheckpointCompat.

import (
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// forestGrid is an EarlyAdopters-shaped axis: a baseline plus
// overlapping, pairwise-incomparable deployment scenarios (distinct
// non-stub windows, one with a simplex variant), which the planner's
// forest links with remove-then-add deltas.
func forestGrid(g *asgraph.Graph, workers int, mode IncrementalMode) *Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	nonStubs := asgraph.NonStubs(g)
	win := func(lo, hi int) *asgraph.Set { return asgraph.SetOf(g.N(), nonStubs[lo:hi]...) }
	return &Grid{
		Deployments: []Deployment{
			{Name: "baseline"},
			{Name: "winA", Dep: &core.Deployment{Full: win(0, 12)}},
			{Name: "winB", Dep: &core.Deployment{Full: win(6, 18)}},
			{Name: "winC", Dep: &core.Deployment{Full: win(12, 24)}},
			{Name: "winB+simplex", Dep: &core.Deployment{Full: win(6, 18), Simplex: win(18, 22)}},
		},
		Attackers:    M,
		Destinations: D,
		PerDest:      true,
		Incremental:  mode,
		Workers:      workers,
	}
}

// TestForestScheduleDeterminism re-plans the same grid repeatedly and
// across fresh Grid values: the fingerprint — which hashes the forest's
// exact walk structure — must be bit-for-bit stable, because
// distributed workers recompute the plan independently and merge
// partials by shard index alone.
func TestForestScheduleDeterminism(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 31})
	var fp string
	for i := 0; i < 5; i++ {
		got := mustPrepare(forestGrid(g, 1+i%3, IncrementalAuto), g).fp
		if i == 0 {
			fp = got
		} else if got != fp {
			t.Fatalf("replanning run %d produced fingerprint %s, want %s", i, got, fp)
		}
	}
	if fp == "" {
		t.Fatal("no fingerprint computed")
	}
}
