package sweep

// The sweep's equivalence tests compare schedules with each other, and
// every schedule is the same loop over the same walk — a bug in
// evaluateRange would move "want" and "got" together. This file anchors
// them on an oracle that shares neither: runner.EvalMetricPerDest, a
// fresh engine per worker and a plain loop over (destination, attacker).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// randomHierarchy builds a small random AS graph: every AS after the
// first buys transit from up to two lower-numbered ASes (so the provider
// relation is acyclic), plus random peerings. It need not be connected.
func randomHierarchy(seed int64, n int) *asgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := asgraph.NewBuilder(n)
	linked := map[[2]asgraph.AS]bool{}
	link := func(x, y asgraph.AS, peer bool) {
		if x > y {
			x, y = y, x
		}
		if x == y || linked[[2]asgraph.AS{x, y}] {
			return
		}
		linked[[2]asgraph.AS{x, y}] = true
		if peer {
			b.AddPeer(x, y)
		} else {
			b.AddProviderCustomer(x, y)
		}
	}
	for v := 1; v < n; v++ {
		for k := rng.Intn(3); k > 0; k-- {
			link(asgraph.AS(rng.Intn(v)), asgraph.AS(v), false)
		}
	}
	for e := rng.Intn(2 * n); e > 0; e-- {
		link(asgraph.AS(rng.Intn(n)), asgraph.AS(rng.Intn(n)), true)
	}
	return b.MustBuild()
}

// happyCounts recovers the integer (happy-lo, happy-hi) source counts a
// Metric was divided from. Exact: the quotient came from those integers
// and pairs·sources, so the product is off by far less than one half.
func happyCounts(m runner.Metric, sources int) (lo, hi int) {
	scale := float64(m.Pairs) * float64(sources)
	return int(math.Round(m.Lo * scale)), int(math.Round(m.Hi * scale))
}

// wantHandoffHits counts, from the schedule alone, the chain
// continuations a fresh evaluation of layout l performs: one per shard
// boundary that cuts a group run of a valid (m ≠ d) pair mid-chain. That
// is the number the walk reported before it knew about security-free
// cells, and a head deferred by the baseline memo must not change it.
func wantHandoffHits(pl *Plan, l *Layout) int {
	s, ax := pl.sched, pl.ax
	hits := 0
	for p := l.ShardSize; p < l.Cells; p += l.ShardSize {
		if s.handoffFree(p) {
			continue
		}
		ci := s.chainAt(p)
		pair := (p - s.blockStart[ci]) / len(s.plan.chains[ci]) % (ax.nd * ax.na)
		if pl.gr.Destinations[pair/ax.na] != pl.gr.Attackers[pair%ax.na] {
			hits++
		}
	}
	return hits
}

// TestSweepMatchesOracleOnGeneratedInputs is the differential test on
// generated inputs: topogen graphs at several seeds plus random small
// hierarchies × the four schedule shapes (IncrementalOff, a nested
// rollout, an incomparable forest axis, an IncrementalAuto axis nothing
// links) × worker counts × shard sizes (every cell its own shard, shards
// cutting chains mid-walk, one shard holding the grid) × PerDest, every
// evaluation's integer counts compared exactly with the runner's. The
// destination set straddles S on every axis — one destination joins
// Full partway along (and leaves again on the forest axis), one joins
// Simplex, the rest stay outside — so security-free and secure cells
// alternate inside one chain: the baseline memo must fire (fewer engine
// runs than cells), the oracle — which knows nothing of the collapse —
// must still agree, and the handoff counters must be the schedule's own
// numbers even where a shard boundary falls right behind memo-served
// steps.
func TestSweepMatchesOracleOnGeneratedInputs(t *testing.T) {
	type input struct {
		name string
		g    *asgraph.Graph
		lp   policy.LocalPref
	}
	var inputs []input
	for seed := int64(1); seed <= 3; seed++ {
		g, _ := topogen.MustGenerate(topogen.Params{N: 150, Seed: seed})
		inputs = append(inputs, input{fmt.Sprintf("topogen-%d", seed), g, policy.Standard})
	}
	for seed := int64(1); seed <= 3; seed++ {
		lp := policy.Standard
		if seed == 2 {
			lp = policy.LP2
		}
		inputs = append(inputs, input{fmt.Sprintf("random-%d", seed), randomHierarchy(seed, 40+10*int(seed)), lp})
	}
	workerCounts, sizes := []int{1, 2, 3}, []int{1, 7, 1 << 20}
	if raceEnabled {
		workerCounts, sizes = []int{3}, []int{7}
	}

	shapes := map[string]int{} // schedule shapes the matrix actually exercised
	for _, in := range inputs {
		g := in.g
		all := runner.AllASes(g.N())
		rng := rand.New(rand.NewSource(int64(g.N())))
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		// Overlapping attacker and destination sets, so m == d cells occur.
		M, D := all[:4], all[2:7]
		members := all[7:]
		set := func(vs []asgraph.AS, more ...asgraph.AS) *core.Deployment {
			full := asgraph.SetOf(g.N(), vs...)
			for _, v := range more {
				full.Add(v)
			}
			return &core.Deployment{Full: full}
		}
		secureD, simplexD := D[0], D[1] // D[2:] never deploy
		unlinkable := unlinkableGrid(g, IncrementalAuto).Deployments
		axes := []struct {
			name string
			mode IncrementalMode
			deps []Deployment
		}{
			{"off", IncrementalOff, []Deployment{
				{Name: "b", Dep: set(members[:9], secureD)}, {Name: "baseline"}, {Name: "a", Dep: set(members[:3])},
			}},
			{"nested", IncrementalAuto, []Deployment{
				{Name: "baseline"}, {Name: "s3", Dep: set(members[:3])}, {Name: "s6", Dep: set(members[:6], secureD)},
				{Name: "s12", Dep: &core.Deployment{Full: set(members[:10], secureD).Full, Simplex: asgraph.SetOf(g.N(), members[10], members[11], simplexD)}},
			}},
			{"forest", IncrementalAuto, []Deployment{
				{Name: "w0", Dep: set(members[0:6], secureD)},
				{Name: "w3", Dep: &core.Deployment{Full: set(members[3:9], secureD).Full, Simplex: asgraph.SetOf(g.N(), simplexD)}},
				{Name: "baseline"}, {Name: "w6", Dep: set(members[6:12])},
			}},
			{"unlinkable", IncrementalAuto, unlinkable},
		}
		for _, axis := range axes {
			// The oracle: per deployment and model, per-destination counts.
			sources := g.N() - 2
			want := make([][policy.NumModels][]runner.Metric, len(axis.deps))
			for si, dp := range axis.deps {
				for _, model := range policy.Models {
					want[si][model] = runner.EvalMetricPerDest(g, model, in.lp, dp.Dep, M, D, 1)
				}
			}
			for _, workers := range workerCounts {
				for _, perDest := range []bool{false, true} {
					pl := mustPrepare(&Grid{
						LP: in.lp, Deployments: axis.deps, Attackers: M, Destinations: D,
						PerDest: perDest, Incremental: axis.mode, Workers: workers,
					}, g)
					switch {
					case pl.sched.identity():
						shapes["identity/"+axis.name]++
					case removesAny(pl.sched.plan):
						shapes["forest"]++
					default:
						shapes["nested"]++
					}
					for _, size := range sizes {
						var stats ShardStats
						res, err := pl.EvaluateSharded(context.Background(), ShardOptions{ShardSize: size}, RunOptions{Stats: &stats})
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s/%s workers=%d shard=%d perdest=%v", in.name, axis.name, workers, size, perDest)
						walk := walkOf(stats)
						if valid := validCells(&pl.gr, policy.NumModels); walk.cells != valid || walk.runs >= walk.cells {
							t.Errorf("%s: walked %d cells in %d engine runs, want all %d valid cells in fewer runs (every axis has security-free cells)",
								where, walk.cells, walk.runs, valid)
						}
						if hits := wantHandoffHits(pl, pl.Layout(size)); stats.HandoffHits != hits || stats.HandoffMisses != 0 {
							t.Errorf("%s: %d handoff hits and %d misses, the schedule implies %d and 0",
								where, stats.HandoffHits, stats.HandoffMisses, hits)
						}
						for si, dp := range axis.deps {
							for _, model := range policy.Models {
								cell := res.Cell(dp.Name, model)
								var wantLo, wantHi, wantPairs int
								for di, wm := range want[si][model] {
									lo, hi := happyCounts(wm, sources)
									wantLo, wantHi, wantPairs = wantLo+lo, wantHi+hi, wantPairs+wm.Pairs
									if !perDest {
										continue
									}
									gotLo, gotHi := happyCounts(cell.PerDest[di], sources)
									if gotLo != lo || gotHi != hi || cell.PerDest[di].Pairs != wm.Pairs {
										t.Errorf("%s: %s/%v dest %d: counts (%d, %d, %d pairs), oracle (%d, %d, %d pairs)",
											where, dp.Name, model, di, gotLo, gotHi, cell.PerDest[di].Pairs, lo, hi, wm.Pairs)
									}
								}
								gotLo, gotHi := happyCounts(cell.Metric, sources)
								if gotLo != wantLo || gotHi != wantHi || cell.Metric.Pairs != wantPairs {
									t.Errorf("%s: %s/%v: counts (%d, %d, %d pairs), oracle (%d, %d, %d pairs)",
										where, dp.Name, model, gotLo, gotHi, cell.Metric.Pairs, wantLo, wantHi, wantPairs)
								}
								if perDest == (cell.PerDest == nil) {
									t.Errorf("%s: %s/%v: per-destination series presence does not follow the grid", where, dp.Name, model)
								}
							}
						}
					}
				}
			}
		}
	}
	// Every shape must actually have been walked, on most inputs: a
	// planner change that quietly turned the forest axes into identity
	// runs would otherwise leave this test green and toothless.
	t.Logf("schedule shapes exercised: %v", shapes)
	perInput := len(workerCounts) * 2
	for _, shape := range []string{"identity/off", "identity/unlinkable", "nested", "forest"} {
		if shapes[shape] < 4*perInput {
			t.Errorf("schedule shape %q exercised on %d of %d inputs, want at least 4", shape, shapes[shape]/perInput, len(inputs))
		}
	}
}
