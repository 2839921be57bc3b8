package sweep

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// unlinkableGrid is an axis the planner cannot link at all, declared out
// of size order: three pairwise-disjoint deployments — the even ASes,
// the twelve highest-degree odd ones, the remaining odd ones — so no
// pair nests and every pairwise signed delta carries well over the
// from-scratch volume. IncrementalAuto must degrade it to the identity
// order, which is the axis order [evens, top-odds, rest-odds] — not the
// nested planner's smallest-first [top-odds, rest-odds, evens].
func unlinkableGrid(g *asgraph.Graph, mode IncrementalMode) *Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	var evens, odds []asgraph.AS
	for v := 0; v < g.N(); v++ {
		if v%2 == 0 {
			evens = append(evens, asgraph.AS(v))
		} else {
			odds = append(odds, asgraph.AS(v))
		}
	}
	sort.SliceStable(odds, func(a, b int) bool { return g.Degree(odds[a]) > g.Degree(odds[b]) })
	full := func(members []asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(g.N(), members...)}
	}
	return &Grid{
		Deployments: []Deployment{
			{Name: "evens", Dep: full(evens)},
			{Name: "top-odds", Dep: full(odds[:12])},
			{Name: "rest-odds", Dep: full(odds[12:])},
		},
		Attackers:    M,
		Destinations: D,
		Incremental:  mode,
		Workers:      2,
	}
}

// unitRuns renders a unit list as run-length-encoded unit lengths in
// shards ("3x2 1x50": three two-shard units, then one of fifty), after
// checking the units tile [0, shards).
func unitRuns(t *testing.T, units []ShardRange, shards int) string {
	t.Helper()
	var b strings.Builder
	next, runLen, runCount := 0, 0, 0
	flush := func() {
		if runCount > 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%dx%d", runCount, runLen)
		}
	}
	for _, u := range units {
		if u.Start != next || u.End <= u.Start {
			t.Fatalf("unit %+v does not continue the tiling at shard %d", u, next)
		}
		next = u.End
		if u.Len() != runLen {
			flush()
			runLen, runCount = u.Len(), 0
		}
		runCount++
	}
	flush()
	if next != shards {
		t.Fatalf("units end at shard %d, want %d", next, shards)
	}
	return b.String()
}

// withoutMemo is st with the memo and engine counters cleared: above one
// worker, which worker fills a cold memo slot first is
// scheduling-dependent, and so is which cells the engines run, so only
// the other fields are exact.
func withoutMemo(st ShardStats) ShardStats {
	st.MemoHits, st.MemoFills, st.Counters = 0, 0, core.Counters{}
	return st
}

// shardStats evaluates pl at shard size 7 into a memory-only store and
// returns the run's ShardStats.
func shardStats(t *testing.T, pl *Plan) ShardStats {
	t.Helper()
	var stats ShardStats
	if _, err := pl.EvaluateSharded(context.Background(), ShardOptions{ShardSize: 7}, RunOptions{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestLayoutPins holds the layout-defining values of four fixture grids
// as literals captured before the identity order became a plan: the
// fingerprint, the shard-size-7 Layout, the lease units and the
// ShardStats of a fresh run, planner fields included — at the grid's own
// worker count, and again, memo and engine counters included, on a fresh
// plan at one worker. A schedule refactor that moves any of them
// silently invalidates every checkpoint and every distributed lease
// written before it, so they are pinned as numbers, not as "equal to
// what the other mode computes".
func TestLayoutPins(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	gf, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 31})

	// The unlinkable fixture must be the trap it claims to be: the
	// nested planner, left to order it, would permute the axis.
	unlinkable := unlinkableGrid(g, IncrementalAuto).Deployments
	if got := fmt.Sprint(chainNames(unlinkable, buildNestedChainPlan(unlinkable))); got != "[[top-odds] [rest-odds] [evens]]" {
		t.Fatalf("unlinkable fixture: nested planner orders it %s, want a permutation of the axis order", got)
	}

	for _, tc := range []struct {
		name     string
		g        *asgraph.Graph
		grid     *Grid
		identity bool
		layout   Layout
		units    string
		stats    ShardStats
	}{
		{
			name: "off", g: g, grid: chainedGrid(g, IncrementalOff), identity: true,
			layout: Layout{Fingerprint: "3eec88709eee8bf1", Cells: 360, Tasks: 72, ShardSize: 7, Shards: 52},
			units:  "52x1",
			stats:  ShardStats{Units: 52, MemoHits: 283, MemoFills: 29, Counters: core.Counters{Runs: 65}, ChainHeads: 4, DeltaEdges: 0, PredictedVolume: 3712},
		},
		{
			name: "auto-unlinkable", g: g, grid: unlinkableGrid(g, IncrementalAuto), identity: true,
			layout: Layout{Fingerprint: "ad63c0d8110ceab4", Cells: 270, Tasks: 54, ShardSize: 7, Shards: 39},
			units:  "39x1",
			stats:  ShardStats{Units: 39, MemoHits: 145, MemoFills: 29, Counters: core.Counters{Runs: 116}, ChainHeads: 3, DeltaEdges: 0, PredictedVolume: 2784},
		},
		{
			name: "nested", g: g, grid: chainedGrid(g, IncrementalAuto),
			layout: Layout{Fingerprint: "71b7eed2079d55c3", Cells: 360, Tasks: 72, ShardSize: 7, Shards: 52},
			units:  "13x4",
			stats: ShardStats{Units: 13, HandoffHits: 39, MemoHits: 208, MemoFills: 29,
				Counters:   core.Counters{Runs: 58, DeltaSteps: 7, DirtyVolume: 3942, NoOps: 75, Fallbacks: 21, Passes: 9, FirstPassVolume: 17925},
				ChainHeads: 1, DeltaEdges: 3, PredictedVolume: 2194},
		},
		{
			name: "forest", g: gf, grid: forestGrid(gf, 2, IncrementalAuto),
			layout: Layout{Fingerprint: "6ce55ff4dc3b1c87", Cells: 450, Tasks: 90, ShardSize: 7, Shards: 65},
			units:  "13x5",
			stats: ShardStats{Units: 13, HandoffHits: 50, MemoHits: 258, MemoFills: 29,
				Counters:   core.Counters{Runs: 53, NoOps: 124, Fallbacks: 16, FirstPassVolume: 25550},
				ChainHeads: 1, DeltaEdges: 4, PredictedVolume: 5869},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := mustPrepare(tc.grid, tc.g)
			if got := pl.sched.identity(); got != tc.identity {
				t.Fatalf("identity order = %v, want %v", got, tc.identity)
			}
			l := pl.Layout(7)
			if *l != tc.layout {
				t.Errorf("layout = %+v, want %+v", *l, tc.layout)
			}
			if got := unitRuns(t, pl.Units(l), l.Shards); got != tc.units {
				t.Errorf("units = %q, want %q", got, tc.units)
			}
			stats := shardStats(t, pl)
			if withoutMemo(stats) != withoutMemo(tc.stats) {
				t.Errorf("workers=%d: stats = %+v, want %+v", tc.grid.Workers, stats, tc.stats)
			}
			one := *tc.grid
			one.Workers = 1
			if stats := shardStats(t, mustPrepare(&one, tc.g)); stats != tc.stats {
				t.Errorf("workers=1: stats = %+v, want %+v", stats, tc.stats)
			}
		})
	}
}
