package sweep

// Integration tests for the signed-delta forest schedule: an
// incomparable deployment axis (the EarlyAdopters/Fig-8 shape) must
// reproduce the legacy evaluation byte for byte at every worker count
// and shard size, resume only against its own layout, and hit every
// cross-shard handoff on a fresh run. The planner-level forest
// invariants live in incremental_test.go; these tests drive the
// schedule end to end.

import (
	"bytes"
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// forestGrid is an EarlyAdopters-shaped axis: a baseline plus
// overlapping, pairwise-incomparable deployment scenarios (distinct
// non-stub windows, one with a simplex variant). The nested planner
// covers it with one singleton chain per scenario; the forest links
// them with remove-then-add deltas.
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

// requireForestSchedule fails unless the grid actually plans a forest —
// guarding every test below against silently degrading into a
// nested-chain or identity run that would no longer exercise the new
// layout.
func requireForestSchedule(t *testing.T, gr *Grid, g *asgraph.Graph) *schedule {
	t.Helper()
	sched := mustPrepare(gr, g).sched
	if sched.identity() || !sched.plan.forest {
		t.Fatalf("test grid did not plan a forest schedule (identity=%v)", sched.identity())
	}
	return sched
}

// TestForestEquivalence is the tentpole's byte-identity contract on an
// incomparable axis: the non-incremental evaluation is the authority,
// and the forest schedule — flat and sharded, across worker counts and
// shard sizes — must reproduce it exactly.
func TestForestEquivalence(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 31})
	requireForestSchedule(t, forestGrid(g, 1, IncrementalAuto), g)

	var want bytes.Buffer
	if err := mustEvaluate(forestGrid(g, 1, IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	gomax := runtime.GOMAXPROCS(0)
	workerCounts := []int{1, 4, gomax}
	sizes := []int{1, 7, 64}
	if raceEnabled {
		workerCounts, sizes = []int{4}, []int{7}
	}
	for _, w := range workerCounts {
		gr := forestGrid(g, w, IncrementalAuto)
		var flat bytes.Buffer
		if err := mustEvaluate(gr, g).WriteJSON(&flat); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat.Bytes(), want.Bytes()) {
			t.Errorf("forest grid (workers=%d) diverges from the from-scratch evaluation", w)
		}
		for _, size := range sizes {
			res, err := evaluateSharded(context.Background(), forestGrid(g, w, IncrementalAuto), g, ShardOptions{ShardSize: size})
			if err != nil {
				t.Fatal(err)
			}
			var sharded bytes.Buffer
			if err := res.WriteJSON(&sharded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sharded.Bytes(), want.Bytes()) {
				t.Errorf("sharded forest grid (workers=%d, shard=%d) diverges", w, size)
			}
		}
	}
}

// TestForestDistributedEquivalence runs the distributed split over a
// forest layout: disjoint worker ranges evaluated independently and
// merged must reproduce the single-box sharded bytes, and a worker
// holding a layout from a different schedule must be rejected.
func TestForestDistributedEquivalence(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 31})
	var want bytes.Buffer
	if err := mustEvaluate(forestGrid(g, 1, IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	pl := mustPrepare(forestGrid(g, 2, IncrementalAuto), g)
	l := pl.Layout(7)
	units := pl.Units(l)
	// Three "workers", each leasing a contiguous run of whole units.
	var bounds []int
	for i := 0; i < 3; i++ {
		bounds = append(bounds, units[len(units)*i/3].Start)
	}
	bounds = append(bounds, l.Shards)
	var partials []*ShardPartial
	for wi := 0; wi < 3; wi++ {
		wpl := mustPrepare(forestGrid(g, 2, IncrementalAuto), g) // a worker plans for itself
		err := wpl.EvaluateShardRange(context.Background(), l, ShardRange{Start: bounds[wi], End: bounds[wi+1]}, RangeOptions{
			Sink: func(p *ShardPartial) error { partials = append(partials, p); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := pl.Merge(l, partials)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("merged distributed forest evaluation diverges from the legacy bytes")
	}

	// A worker that disabled the incremental scheduler holds the
	// identity layout of the same grid: its fingerprint must not match.
	offPl := mustPrepare(forestGrid(g, 2, IncrementalOff), g)
	err = offPl.EvaluateShardRange(context.Background(), l, ShardRange{Start: 0, End: 1}, RangeOptions{})
	if err == nil {
		t.Fatal("forest layout accepted by a worker running the identity schedule")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("cross-schedule range evaluation failed with %v, want a fingerprint mismatch", err)
	}
}

// TestForestLayoutCheckpointCompat extends the cross-layout resume
// contract to the forest: a forest-layout checkpoint resumes only under
// the forest schedule, an identity checkpoint is rejected under it, and
// an interrupted forest run resumed at single-cell shards lands on the
// uninterrupted bytes.
func TestForestLayoutCheckpointCompat(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 31})
	dir := t.TempDir()
	run := func(mode IncrementalMode, ckpt string, resume bool) (*Result, error) {
		return evaluateSharded(context.Background(), forestGrid(g, 4, mode), g, ShardOptions{
			ShardSize:  7,
			Checkpoint: ckpt,
			Resume:     resume,
		})
	}
	var want bytes.Buffer
	if err := mustEvaluate(forestGrid(g, 1, IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	forest := filepath.Join(dir, "forest.ckpt")
	if _, err := run(IncrementalAuto, forest, false); err != nil {
		t.Fatal(err)
	}
	res, err := run(IncrementalAuto, forest, true)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("forest-layout resume diverges")
	}
	if _, err := run(IncrementalOff, forest, true); err == nil {
		t.Fatal("forest checkpoint resumed under the identity layout without error")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("cross-layout resume failed with %v, want a fingerprint mismatch", err)
	}

	legacy := filepath.Join(dir, "identity.ckpt")
	if _, err := run(IncrementalOff, legacy, false); err != nil {
		t.Fatal(err)
	}
	if _, err := run(IncrementalAuto, legacy, true); err == nil {
		t.Fatal("identity checkpoint resumed under the forest layout without error")
	}

	// Interrupt-resume at single-cell shards: nearly every forest walk
	// step sits on a shard boundary, and the resumed run restarts
	// mid-walk chains from whatever heads the checkpoint gap dictates.
	ckpt := filepath.Join(dir, "interrupt.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completed := 0
	ires, err := evaluateSharded(ctx, forestGrid(g, 4, IncrementalAuto), g, ShardOptions{
		ShardSize:  1,
		Checkpoint: ckpt,
		Sink: func(*ShardPartial) error {
			if completed++; completed == 40 {
				cancel()
			}
			return nil
		},
	})
	if err == nil || ires != nil {
		t.Fatalf("interrupted forest run returned (%v, %v), want cancellation", ires, err)
	}
	res2, err := evaluateSharded(context.Background(), forestGrid(g, 4, IncrementalAuto), g, ShardOptions{
		ShardSize:  1,
		Checkpoint: ckpt,
		Resume:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got2 bytes.Buffer
	if err := res2.WriteJSON(&got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Bytes(), want.Bytes()) {
		t.Error("resumed forest run diverges from the uninterrupted bytes")
	}
}

// TestForestHandoffAndStats pins the handoff and planner stats on a
// forest schedule: on a fresh run every boundary that cuts a walk is a
// handoff hit and none miss, and the surfaced planner counters describe
// the forest (fewer heads than deployments, the difference made up in
// delta edges, and a predicted volume strictly below the identity
// schedule's all-from-scratch prediction).
func TestForestHandoffAndStats(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 31})
	var want bytes.Buffer
	if err := mustEvaluate(forestGrid(g, 1, IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	// The forest links all five deployments into one walk, so any shard
	// size that is not a multiple of 5 cuts walks mid-flight.
	for _, size := range []int{1, 2, 3} {
		gr := forestGrid(g, 4, IncrementalAuto)
		requireForestSchedule(t, gr, g)
		pl := mustPrepare(gr, g)
		wantHits := expectedHandoffTakes(pl, size)
		if wantHits == 0 {
			t.Fatalf("shard size %d: forest grid exercises no cross-shard handoffs", size)
		}
		var stats ShardStats
		res, err := pl.EvaluateSharded(context.Background(), ShardOptions{ShardSize: size}, RunOptions{Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		if stats.HandoffMisses != 0 {
			t.Errorf("shard size %d: %d handoff misses on a fresh forest run, want 0", size, stats.HandoffMisses)
		}
		if stats.HandoffHits != wantHits {
			t.Errorf("shard size %d: %d handoff hits, want %d", size, stats.HandoffHits, wantHits)
		}
		nDeps := len(gr.Deployments)
		if stats.ChainHeads <= 0 || stats.ChainHeads >= nDeps {
			t.Errorf("shard size %d: ChainHeads = %d, want in (0,%d) for a linked forest", size, stats.ChainHeads, nDeps)
		}
		if stats.ChainHeads+stats.DeltaEdges != nDeps {
			t.Errorf("shard size %d: heads %d + delta edges %d ≠ %d deployments",
				size, stats.ChainHeads, stats.DeltaEdges, nDeps)
		}
		scratchAll := int64(nDeps) * fromScratchCost(g)
		if stats.PredictedVolume <= 0 || stats.PredictedVolume >= scratchAll {
			t.Errorf("shard size %d: PredictedVolume = %d, want in (0,%d) — the forest must beat all-from-scratch",
				size, stats.PredictedVolume, scratchAll)
		}
		var got bytes.Buffer
		if err := res.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("shard size %d: forest handoff result diverges from the legacy bytes", size)
		}
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
