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
// planner's smallest-first [top-odds, rest-odds, evens].
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
	// planner links none of it, and its walks, left in the planner's
	// order, would permute the axis; only the identity fallback keeps
	// the axis order.
	unlinkable := unlinkableGrid(g, IncrementalAuto).Deployments
	if p := buildChainPlan(unlinkable, g); p.deltaEdges != 0 || fmt.Sprint(chainNames(unlinkable, p)) != "[[top-odds] [rest-odds] [evens]]" {
		t.Fatalf("unlinkable fixture: the planner walks it %v, want the unlinked permutation of the axis order", chainNames(unlinkable, p))
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
			layout: Layout{Fingerprint: "50d296e0a4dea9ef", Cells: 360, Tasks: 72, ShardSize: 7, Shards: 52},
			units:  "13x4",
			stats: ShardStats{Units: 13, HandoffHits: 39, MemoHits: 208, MemoFills: 29,
				Counters:   core.Counters{Runs: 58, DeltaSteps: 7, DirtyVolume: 3942, NoOps: 75, Fallbacks: 21, Passes: 9, FirstPassVolume: 17925},
				ChainHeads: 1, DeltaEdges: 3, PredictedVolume: 2194},
		},
		{
			name: "forest", g: gf, grid: forestGrid(gf, 2, IncrementalAuto),
			layout: Layout{Fingerprint: "3c3a54777a5e17b9", Cells: 450, Tasks: 90, ShardSize: 7, Shards: 65},
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

// planPin renders what a plan decides — its walks by deployment name and
// its cost-model totals — as one comparable line.
func planPin(deps []Deployment, p *chainPlan) string {
	return fmt.Sprintf("%v heads=%d edges=%d vol=%d", chainNames(deps, p), p.heads, p.deltaEdges, p.predictedVol)
}

// TestPlannerWalkPins holds the planner's output as literals on every
// deployment axis the benchmark and the fixture grids plan: the walks,
// the heads, the delta edges and the predicted volume. A planner change
// that moves any of them moves a checkpoint layout or a benchmark walk,
// so each move must be a deliberate re-pin.
func TestPlannerWalkPins(t *testing.T) {
	pins := map[string]string{
		"headline/dist-2w": "[[baseline] [nonstubs] [t2 t1t2 t1t2cp]] heads=3 edges=2 vol=70140",
		"rollout": "[[baseline t2-01 t2-02 t2-03 t2-04 t2-05 t2-06 t2-07 t2-08 t2-09 t2-10 t2-11 t2-12 " +
			"t2-13 t2-14 t2-15 t2-16 t2-17 t2-18 t2-19 t2-20 t2-21 t2-22 t2-23 t2-24]] heads=1 edges=24 vol=47304",
		"durable":      "[[baseline] [nonstubs] [t2 t1t2 t1t2cp]] heads=3 edges=2 vol=7778",
		"daemon-small": "[[baseline t1t2]] heads=1 edges=1 vol=19906",
		"fig7a-simplex/800-1": "[[baseline step0 step1 step2] [step0+simplex step1+simplex step2+simplex]] " +
			"heads=2 edges=5 vol=19162",
		"fig7a-simplex/800-23": "[[baseline step0 step0+simplex step1+simplex step2+simplex step1 step2]] " +
			"heads=1 edges=6 vol=18226",
		"nestedGrid/500-17": "[[baseline step3 step3+simplex step9+simplex step9 step18 step30 step18+simplex step30+simplex]] " +
			"heads=1 edges=8 vol=11127",
		"forestGrid/400-31":        "[[baseline winA winB winB+simplex winC]] heads=1 edges=4 vol=5869",
		"chainedGrid/200-23":       "[[baseline step4 step10 step20]] heads=1 edges=3 vol=2194",
		"headlineShapedGrid/400-3": "[[baseline] [nonstubs] [t2 t1t2 t1t2cp]] heads=3 edges=2 vol=7591",
		"unlinkableGrid/200-23":    "[[top-odds] [rest-odds] [evens]] heads=3 edges=0 vol=2784",
	}
	check := func(name string, deps []Deployment, g *asgraph.Graph) {
		t.Helper()
		if got := planPin(deps, buildChainPlan(deps, g)); got != pins[name] {
			t.Errorf("%s: plan = %s\n\twant %s", name, got, pins[name])
		}
	}
	for _, ax := range append(benchCostAxes(), fig7aCostAxis(1), fig7aCostAxis(23)) {
		check(ax.name, ax.deps, ax.g)
	}
	g23, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	g17, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	g31, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 31})
	g3, meta3 := topogen.MustGenerate(topogen.Params{N: 400, Seed: 3})
	check("nestedGrid/500-17", nestedGrid(g17, 1, IncrementalAuto).Deployments, g17)
	check("forestGrid/400-31", forestGrid(g31, 1, IncrementalAuto).Deployments, g31)
	check("chainedGrid/200-23", chainedGrid(g23, IncrementalAuto).Deployments, g23)
	check("headlineShapedGrid/400-3", headlineShapedGrid(g3, meta3).Deployments, g3)
	check("unlinkableGrid/200-23", unlinkableGrid(g23, IncrementalAuto).Deployments, g23)
}
