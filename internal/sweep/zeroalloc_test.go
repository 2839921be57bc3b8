package sweep

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// rolloutDeployments builds a nested rollout chain of the given length:
// the baseline plus growing prefixes of the non-stub ASes, so the
// chain-major scheduler gets real RunDelta chains to cut and carry.
func rolloutDeployments(g *asgraph.Graph, steps int) []Deployment {
	nonStubs := asgraph.NonStubs(g)
	deps := []Deployment{{Name: "baseline"}}
	for i := 1; i < steps; i++ {
		k := i * 3
		deps = append(deps, Deployment{
			Name: fmt.Sprintf("step%d", k),
			Dep:  &core.Deployment{Full: asgraph.SetOf(g.N(), nonStubs[:k]...)},
		})
	}
	return deps
}

// forestDeployments builds a pairwise-incomparable axis — overlapping
// sliding windows over the non-stub ASes — that the planner links into
// a signed-delta forest rather than nested chains.
func forestDeployments(g *asgraph.Graph, steps int) []Deployment {
	nonStubs := asgraph.NonStubs(g)
	deps := []Deployment{{Name: "baseline"}}
	for i := 1; i < steps; i++ {
		lo := (i - 1) * 3
		deps = append(deps, Deployment{
			Name: fmt.Sprintf("win%d", lo),
			Dep:  &core.Deployment{Full: asgraph.SetOf(g.N(), nonStubs[lo:lo+9]...)},
		})
	}
	return deps
}

// TestShardLoopZeroAllocs pins the arena contract of the sharded sweep:
// once the per-worker state is warm (engines built, accumulator and
// partial at their high-water marks), the steady-state shard loop —
// schedule walk, engine runs, accumulator fold, partial build, commit —
// allocates nothing per shard. The assertion is indirect but tight:
// one full EvaluateSharded pass over hundreds of shards — each
// committed into a memory-only store — must stay within a fixed
// per-evaluation allocation budget, so even a single
// allocation per shard would blow through it several times over. Both
// schedules are covered: the identity order and the chain-major order
// with its cross-shard tail carry.
//
// The two-worker cases pin the same for strip dispatch, whose scratch
// (unit and strip lists, pending-shard accumulators) is recycled through
// the pool: at shard size 3 hundreds of whole-shard strips, and with one
// shard larger than the grid the sixteen-odd slices folded into a single
// pending shard, cost the one-worker budget plus the worker pool's own
// goroutines and closure — a constant. One allocation per strip or per
// fold would add the strip count to it.
//
// The race detector's instrumentation allocates, so the assertion only
// runs with it off; CI's dedicated zero-alloc job covers that
// configuration.
func TestShardLoopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 9})
	all := runner.AllASes(g.N())
	identity := func(workers int) *Grid {
		return &Grid{
			Models:       []policy.Model{policy.Sec2nd},
			Attackers:    all[:40],
			Destinations: all[:40],
			Incremental:  IncrementalOff,
			Workers:      workers,
		}
	}
	chainMajor := func(workers int) *Grid {
		return &Grid{
			Models:       []policy.Model{policy.Sec2nd},
			Deployments:  rolloutDeployments(g, 6),
			Attackers:    all[:16],
			Destinations: all[:16],
			Incremental:  IncrementalAuto,
			Workers:      workers,
		}
	}

	// Per-evaluation overhead (store, dispatch, reduce) is allowed; it
	// does not scale with the shard count. Each grid is sized so even one
	// alloc per shard blows its budget several times over. Shard size 3
	// cuts chains mid-walk, so the chain-major pass exercises the tail
	// carry on nearly every boundary; size 0 is one shard holding the
	// whole grid.
	for _, tc := range []struct {
		name      string
		grid      *Grid
		shardSize int
		budget    int
	}{
		{"identity", identity(1), 3, 100},
		{"chain-major", chainMajor(1), 3, 100},
		{"forest", &Grid{
			Models:       []policy.Model{policy.Sec2nd},
			Deployments:  forestDeployments(g, 6),
			Attackers:    all[:20],
			Destinations: all[:20],
			Incremental:  IncrementalAuto,
			Workers:      1,
		}, 3, 170},
		{"identity/workers=2", identity(2), 3, 100},
		{"chain-major/workers=2", chainMajor(2), 3, 100},
		{"identity/workers=2/one-shard", identity(2), 0, 30},
		{"chain-major/workers=2/one-shard", chainMajor(2), 0, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := mustPrepare(tc.grid, g)
			pool := NewEnginePool()
			opts := ShardOptions{ShardSize: tc.shardSize}
			l := pl.Layout(tc.shardSize)
			// What must not cost an allocation each: shards, and the
			// strips that slice them.
			items := l.Shards
			if l.Shards == 1 {
				items = len(pl.strips(nil, pl.Units(l), l, tc.grid.Workers))
				if items < 16 {
					t.Fatalf("one shard dispatched in %d strips, want the grid sliced for two workers", items)
				}
			} else if items < 4*tc.budget {
				t.Fatalf("grid too small to distinguish per-shard allocs (%d shards, budget %d)", items, tc.budget)
			}
			// No checkpoint path: every shard commits the worker's scratch
			// partial into a memory-only store, which must fold it without
			// retaining or copying it.
			run := func() {
				if _, err := pl.EvaluateSharded(context.Background(), opts, RunOptions{Pool: pool}); err != nil {
					t.Fatal(err)
				}
				pool.Release()
			}
			// Warm the pooled worker states. With two workers, which state
			// evaluates what varies run to run, so high-water marks (engine
			// queues, the partial of the state that completes a sliced
			// shard) take a few runs to settle.
			for i := 0; i < 4*tc.grid.Workers; i++ {
				run()
			}
			allocs := testing.AllocsPerRun(3, run)
			t.Logf("%.0f allocs per evaluation of %d shards or strips", allocs, items)
			if allocs > float64(tc.budget) {
				t.Errorf("%.0f allocs per evaluation (budget %d, %d shards or strips): the shard loop is allocating per shard or strip",
					allocs, tc.budget, items)
			}
		})
	}
}

// durableRecordAllocs is what one durable shard commit allocates: the
// record's json.Marshal (its output buffer and the record boxed into an
// interface). Nothing else in the durable commit may cost an allocation
// per shard.
const durableRecordAllocs = 2

// TestDurableCommitAllocs pins the per-shard cost of the durable commit.
// One grid is evaluated into a checkpoint at N and at 2N shards, and the
// allocation difference per extra shard must stay at or below the
// record's json.Marshal. The pipelined fsync keeps one syncer goroutine
// and its channels per evaluation; one per shard, or a closure per
// commit, would show here.
func TestDurableCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 9})
	all := runner.AllASes(g.N())
	pl := mustPrepare(&Grid{
		Models:       []policy.Model{policy.Sec2nd},
		Attackers:    all[:40],
		Destinations: all[:40],
		Incremental:  IncrementalOff,
		Workers:      1,
	}, g)
	pool := NewEnginePool()
	dir := t.TempDir()
	measure := func(size int) (allocs float64, shards int) {
		opts := ShardOptions{ShardSize: size, Checkpoint: filepath.Join(dir, fmt.Sprintf("s%d.ckpt", size))}
		run := func() {
			if _, err := pl.EvaluateSharded(context.Background(), opts, RunOptions{Pool: pool}); err != nil {
				t.Fatal(err)
			}
			pool.Release()
		}
		for i := 0; i < 4; i++ {
			run()
		}
		return testing.AllocsPerRun(3, run), pl.Layout(size).Shards
	}
	a1, n1 := measure(16)
	a2, n2 := measure(8)
	perShard := (a2 - a1) / float64(n2-n1)
	t.Logf("%.0f allocs at %d shards, %.0f at %d: %.2f per shard", a1, n1, a2, n2, perShard)
	if perShard > durableRecordAllocs {
		t.Errorf("durable commit costs %.2f allocs per shard, want ≤ %d (the record's json.Marshal)", perShard, durableRecordAllocs)
	}
}
