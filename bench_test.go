// Benchmarks regenerating every table and figure of the paper's
// evaluation (the E1–E27 index in DESIGN.md), plus ablation benchmarks
// for the core algorithmic choices. Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark iteration performs one full experiment at benchmark
// scale (an 800-AS workload with sampled pairs); cmd/experiments runs
// the same experiments at full scale.
package sbgp_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sbgp"
	"sbgp/internal/asgraph"
	"sbgp/internal/bgpsim"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/exp"
	"sbgp/internal/maxk"
	"sbgp/internal/policy"
	"sbgp/internal/rootcause"
	"sbgp/internal/runner"
	"sbgp/internal/sweep"
	"sbgp/internal/topogen"
)

// The benchmark scenario is the headline job at benchmark scale —
// baseline plus the named rollout endpoints over 8×10 sampled pairs on
// 800 ASes — simulated once; the experiment benchmarks run on its
// workload, the grid benchmarks on the simulation itself.
var (
	workloadOnce sync.Once
	bsim         *sbgp.Simulation
	bw           *exp.Workload
	bwIXP        *exp.Workload
)

func benchOptions(extra ...sbgp.Option) []sbgp.Option {
	return append([]sbgp.Option{
		sbgp.WithPairSampling(8, 10),
		sbgp.WithNamedDeployment("t1t2"),
		sbgp.WithNamedDeployment("t2"),
		sbgp.WithNamedDeployment("nonstubs"),
	}, extra...)
}

func benchSimulate(opts ...sbgp.Option) *sbgp.Simulation {
	sim, err := sbgp.NewScenario(opts...).Simulate()
	if err != nil {
		panic(err)
	}
	return sim
}

func benchWorkload(b *testing.B) *exp.Workload {
	b.Helper()
	workloadOnce.Do(func() {
		var err error
		bsim = benchSimulate(benchOptions(sbgp.WithGeneratedTopology(800, 1))...)
		if bw, err = exp.NewWorkload(bsim, 30); err != nil {
			panic(err)
		}
		ixp := benchSimulate(benchOptions(sbgp.WithGeneratedTopology(800, 1), sbgp.WithIXPAugmentation())...)
		if bwIXP, err = exp.NewWorkload(ixp, 30); err != nil {
			panic(err)
		}
	})
	return bw
}

// BenchmarkBaselineHappiness — E1 / Section 4.2: H_V,V(∅) with origin
// authentication only.
func BenchmarkBaselineHappiness(b *testing.B) {
	w := benchWorkload(b)
	// Every call plans the one-cell grid and builds its engines, like
	// every other experiment: the number includes Prepare and cold
	// engines, not only the walk.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := w.Baseline(policy.Sec3rd, policy.Standard)
		if m.Lo <= 0 {
			b.Fatal("degenerate baseline")
		}
	}
}

// BenchmarkFig3Partitions — E2 / Figure 3.
func BenchmarkFig3Partitions(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Partitions(policy.Standard)
	}
}

// BenchmarkFig4PartitionsByDestTier — E3 / Figure 4 (sec 3rd slice).
func BenchmarkFig4PartitionsByDestTier(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.PartitionsByDestTier(policy.Standard)
	}
}

// BenchmarkFig5PartitionsByDestTierSec2 — E4 / Figure 5. The computation
// shares E3's pass; the benchmark isolates the security 2nd recursion by
// running the partitioner directly.
func BenchmarkFig5PartitionsByDestTierSec2(b *testing.B) {
	w := benchWorkload(b)
	p := core.NewPartitioner(w.G, policy.Standard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, m := w.D[i%len(w.D)], w.M[i%len(w.M)]
		if d == m {
			m = w.M[(i+1)%len(w.M)]
		}
		part := p.Run(d, m)
		_, _, _ = part.Counts(policy.Sec2nd)
	}
}

// BenchmarkFig6PartitionsByAttackerTier — E5 / Figure 6.
func BenchmarkFig6PartitionsByAttackerTier(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.PartitionsByAttackerTier(policy.Standard)
	}
}

// BenchmarkSourceTierPartitions — E6 / Section 4.7 ("figure omitted"):
// the by-source-tier fold of E2's walk.
func BenchmarkSourceTierPartitions(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Partitions(policy.Standard)
	}
}

// BenchmarkFig7aRollout — E7 / Figure 7(a): the Tier 1+2 rollout with
// simplex error bars.
func BenchmarkFig7aRollout(b *testing.B) {
	w := benchWorkload(b)
	steps, simplex := deploy.Tier12Rollout(w.G, w.Tiers, false), deploy.Tier12Rollout(w.G, w.Tiers, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Rollout(steps, w.D, policy.Standard)
		_ = w.Rollout(simplex, w.D, policy.Standard)
	}
}

// BenchmarkFig7bSecureDestinations — E8 / Figure 7(b).
func BenchmarkFig7bSecureDestinations(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
	last := steps[len(steps)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.SecureDestDeltas(last.Deployment, policy.Standard)
	}
}

// BenchmarkFig8ContentProviders — E9 / Figure 8.
func BenchmarkFig8ContentProviders(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier12CPRollout(w.G, w.Tiers, w.Meta.CPs, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Rollout(steps, w.Meta.CPs, policy.Standard)
	}
}

// BenchmarkFig9PerDestination — E10 / Figure 9.
func BenchmarkFig9PerDestination(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
	dep := steps[len(steps)-1].Deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.SecureDestDeltas(dep, policy.Standard)
	}
}

// BenchmarkFig10PerDestinationT2 — E11 / Figure 10.
func BenchmarkFig10PerDestinationT2(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier2Rollout(w.G, w.Tiers, false)
	dep := steps[len(steps)-1].Deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.SecureDestDeltas(dep, policy.Standard)
	}
}

// BenchmarkFig11Tier2Rollout — E12 / Figure 11.
func BenchmarkFig11Tier2Rollout(b *testing.B) {
	w := benchWorkload(b)
	steps := deploy.Tier2Rollout(w.G, w.Tiers, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Rollout(steps, w.D, policy.Standard)
	}
}

// BenchmarkFig12NonStubs — E13 / Figure 12.
func BenchmarkFig12NonStubs(b *testing.B) {
	w := benchWorkload(b)
	dep := deploy.Build(w.G, w.Tiers, deploy.Spec{AllNonStubs: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.SecureDestDeltas(dep, policy.Standard)
	}
}

// BenchmarkEarlyAdopters — E14 / Section 5.3.1.
func BenchmarkEarlyAdopters(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range exp.NumEarlyAdopters {
			_ = w.EarlyAdopter(c, policy.Standard)
		}
	}
}

// BenchmarkFig13CPSecureRoutes — E15 / Figure 13.
func BenchmarkFig13CPSecureRoutes(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.CPFate(policy.Sec3rd, policy.Standard)
	}
}

// BenchmarkFig16RootCause — E16 / Figure 16.
func BenchmarkFig16RootCause(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.RootCause(policy.Standard)
	}
}

// BenchmarkTable3Phenomena — E17 / Table 3.
func BenchmarkTable3Phenomena(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, _ := w.RootCause(policy.Standard)
		_ = rc[policy.Sec3rd].Downgraded > 0
	}
}

// BenchmarkFig1Wedgie — E18 / Figure 1: the full wedgie sequence
// (intended state, flap, hysteresis) in the message-level simulator.
func BenchmarkFig1Wedgie(b *testing.B) {
	gb := asgraph.NewBuilder(6)
	gb.AddProviderCustomer(1, 0)
	gb.AddProviderCustomer(5, 0)
	gb.AddProviderCustomer(2, 1)
	gb.AddProviderCustomer(3, 2)
	gb.AddProviderCustomer(4, 3)
	gb.AddProviderCustomer(5, 4)
	g := gb.MustBuild()
	pl := []bgpsim.Placement{bgpsim.First, bgpsim.NotDeployed, bgpsim.Third, bgpsim.First, bgpsim.Third, bgpsim.First}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bgpsim.New(g, pl)
		s.FailLink(2, 1)
		s.Announce(0)
		s.Run(0)
		s.RestoreLink(2, 1)
		s.Run(0)
		s.FailLink(5, 0)
		s.Run(0)
		s.RestoreLink(5, 0)
		s.Run(0)
	}
}

// BenchmarkFig2Downgrade — E19 / Figure 2: one downgrade scenario in the
// routing-outcome engine.
func BenchmarkFig2Downgrade(b *testing.B) {
	gb := asgraph.NewBuilder(6)
	gb.AddProviderCustomer(0, 1)
	gb.AddProviderCustomer(0, 4)
	gb.AddPeer(2, 0)
	gb.AddPeer(2, 1)
	gb.AddProviderCustomer(2, 3)
	gb.AddProviderCustomer(3, 5)
	g := gb.MustBuild()
	dep := &core.Deployment{Full: asgraph.SetOf(6, 0, 1, 4)}
	e := core.NewEngine(g, policy.Sec2nd)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normal := e.RunNormal(0, dep).Clone()
		attack := e.Run(0, 5, dep)
		if core.CountDowngraded(normal, attack) != 1 {
			b.Fatal("downgrade disappeared")
		}
	}
}

// BenchmarkCollateralExamples — E20 / Figures 14, 15, 17: the root-cause
// accounting over the Figure 14 fixture.
func BenchmarkCollateralExamples(b *testing.B) {
	gb := asgraph.NewBuilder(10)
	gb.AddProviderCustomer(1, 0)
	gb.AddProviderCustomer(1, 2)
	gb.AddProviderCustomer(4, 0)
	gb.AddProviderCustomer(5, 4)
	gb.AddProviderCustomer(6, 5)
	gb.AddProviderCustomer(6, 2)
	gb.AddProviderCustomer(2, 3)
	gb.AddProviderCustomer(7, 3)
	gb.AddProviderCustomer(7, 8)
	gb.AddProviderCustomer(8, 9)
	g := gb.MustBuild()
	dep := &core.Deployment{Full: asgraph.SetOf(10, 0, 4, 5, 6, 2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accs, err := rootcause.Evaluate(context.Background(), g, policy.Standard, dep,
			[]asgraph.AS{9}, []asgraph.AS{0}, 1)
		if err != nil || accs[policy.Sec2nd].CollateralDamage <= 0 {
			b.Fatal("collateral damage disappeared")
		}
	}
}

// BenchmarkTheorem21Convergence — E21: message-level convergence to the
// engine's stable state under a randomized schedule.
func BenchmarkTheorem21Convergence(b *testing.B) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 60, Seed: 11, TransitFrac: 0.35, NumCPs: 3, NumIXPs: 3})
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 2 {
		full.Add(asgraph.AS(v))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := bgpsim.New(g, bgpsim.UniformPlacements(g, policy.Sec2nd, full))
		s.Announce(3)
		s.Attack(40, 3)
		s.RunRandom(0, rng)
	}
}

// BenchmarkTheorem31NoDowngrade — E22: the no-downgrade check under
// security 1st across one workload destination.
func BenchmarkTheorem31NoDowngrade(b *testing.B) {
	w := benchWorkload(b)
	e := core.NewEngine(w.G, policy.Sec1st)
	steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
	dep := steps[len(steps)-1].Deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := w.D[i%len(w.D)]
		m := w.M[i%len(w.M)]
		if d == m {
			continue
		}
		normal := e.RunNormal(d, dep).Clone()
		attack := e.Run(d, m, dep)
		_ = core.CountDowngraded(normal, attack)
	}
}

// BenchmarkTheorem61Monotonicity — E23: nested-deployment happiness
// comparison under security 3rd.
func BenchmarkTheorem61Monotonicity(b *testing.B) {
	w := benchWorkload(b)
	e := core.NewEngine(w.G, policy.Sec3rd)
	steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
	small := steps[0].Deployment
	big := steps[len(steps)-1].Deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := w.D[i%len(w.D)]
		m := w.M[i%len(w.M)]
		if d == m {
			continue
		}
		s := e.Run(d, m, small)
		loS, _ := s.HappyBounds()
		t := e.Run(d, m, big)
		loT, _ := t.HappyBounds()
		if loT < loS {
			b.Fatal("monotonicity violated")
		}
	}
}

// BenchmarkMaxKSecurity — E24 / Theorem 5.1: exact Max-k-Security on the
// Appendix I gadget.
func BenchmarkMaxKSecurity(b *testing.B) {
	gd := maxk.BuildGadget(3, [][]int{{0, 1}, {1, 2}, {0, 2}}, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !gd.Satisfiable(policy.Sec3rd) {
			b.Fatal("gadget unsatisfiable")
		}
	}
}

// BenchmarkIXPAugmented — E25 / Appendix J: baseline + partitions on the
// IXP-augmented graph.
func BenchmarkIXPAugmented(b *testing.B) {
	benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bwIXP.Baseline(policy.Sec3rd, policy.Standard)
		_, _ = bwIXP.Partitions(policy.Standard)
	}
}

// BenchmarkLP2Partitions — E26 / Figures 24–25 (Appendix K).
func BenchmarkLP2Partitions(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.Partitions(policy.LP2)
	}
}

// BenchmarkTierClassification — E27 / Table 1.
func BenchmarkTierClassification(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = asgraph.Classify(w.G, w.Meta.CPs, nil)
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationEnginePerPair measures one routing-outcome
// computation (the unit of all experiments) on the benchmark graph.
func BenchmarkAblationEnginePerPair(b *testing.B) {
	w := benchWorkload(b)
	for _, model := range policy.Models {
		b.Run(model.String(), func(b *testing.B) {
			e := core.NewEngine(w.G, model)
			steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
			dep := steps[len(steps)-1].Deployment
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, m := w.D[i%len(w.D)], w.M[i%len(w.M)]
				if d == m {
					m = w.M[(i+1)%len(w.M)]
				}
				_ = e.Run(d, m, dep)
			}
		})
	}
}

// BenchmarkAblationEngineVsMessageSim compares the staged engine with
// the message-level simulator on the same pair: the reason experiments
// use the engine.
func BenchmarkAblationEngineVsMessageSim(b *testing.B) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 120, Seed: 5, TransitFrac: 0.3, NumCPs: 3, NumIXPs: 2})
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 2 {
		full.Add(asgraph.AS(v))
	}
	dep := &core.Deployment{Full: full}
	b.Run("engine", func(b *testing.B) {
		e := core.NewEngine(g, policy.Sec2nd, core.WithResolvedTiebreak())
		for i := 0; i < b.N; i++ {
			_ = e.Run(3, 50, dep)
		}
	})
	b.Run("message-sim", func(b *testing.B) {
		pl := bgpsim.UniformPlacements(g, policy.Sec2nd, full)
		for i := 0; i < b.N; i++ {
			s := bgpsim.New(g, pl)
			s.Announce(3)
			s.Attack(50, 3)
			s.Run(0)
		}
	})
}

// BenchmarkSweepGrid measures the headline (model × deployment) sweep
// grid — baseline plus the named rollout endpoints for all three
// models — evaluated in one parallel pass on the benchmark scenario.
func BenchmarkSweepGrid(b *testing.B) {
	benchWorkload(b)
	M, D := bsim.JobPairs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bsim.Sweep(M, D)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) != 4*policy.NumModels {
			b.Fatalf("grid has %d cells", len(res.Cells))
		}
	}
}

// BenchmarkSweepSharded measures the sharded path on the headline grid:
// in memory, and with the per-shard fsync'd checkpoint (the durability
// cost of interruptible sweeps).
func BenchmarkSweepSharded(b *testing.B) {
	benchWorkload(b)
	b.Run("memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := bsim.EvaluateJob(sbgp.JobEvalOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Cells) != 4*policy.NumModels {
				b.Fatalf("grid has %d cells", len(res.Cells))
			}
		}
	})
	b.Run("checkpoint", func(b *testing.B) {
		small := benchSimulate(benchOptions(sbgp.WithGraph(bsim.Graph(), bsim.Meta()), sbgp.WithShardSize(64))...)
		dir := b.TempDir()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := small.EvaluateJob(sbgp.JobEvalOptions{
				Checkpoint: filepath.Join(dir, fmt.Sprintf("bench_%d.ckpt", i)),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvaluateJobWorkers is the scaling check of the default job
// path: the headline grid (baseline plus four named deployments, three
// models, 6×6 sampled pairs on 4000 ASes — 540 cells, one default-size
// shard) through EvaluateJob at one worker and at GOMAXPROCS. The shard
// is the unit of commit, not of dispatch, so the ratio of the two should
// approach the core count. Each arm first evaluates for a second
// untimed: a core that has idled delivers nothing for most of a second
// on small VMs, which would read as a dispatch problem.
func BenchmarkEvaluateJobWorkers(b *testing.B) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sim := benchSimulate(
				sbgp.WithGraph(g, meta),
				sbgp.WithPairSampling(6, 6),
				sbgp.WithNamedDeployment("t1t2"),
				sbgp.WithNamedDeployment("t1t2cp"),
				sbgp.WithNamedDeployment("t2"),
				sbgp.WithNamedDeployment("nonstubs"),
				sbgp.WithWorkers(workers),
			)
			pool := sbgp.NewEnginePool()
			evaluate := func() {
				res, err := sim.EvaluateJob(sbgp.JobEvalOptions{Pool: pool})
				pool.Release()
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != 5*policy.NumModels {
					b.Fatalf("grid has %d cells", len(res.Cells))
				}
			}
			for start := time.Now(); time.Since(start) < time.Second; {
				evaluate()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evaluate()
			}
		})
	}
}

// BenchmarkPoolAcrossSizes prices what the daemon's keyed pool cache
// used to save (DESIGN.md "Measured go/no-go for the keyless pool"): one
// op is a daemon-small-shaped job (model 3, baseline + t1t2, 4×4 pairs —
// 32 cells) on 400 ASes followed by the same job on 4000, the worst
// traffic for a pool whose engines follow the job, since every job meets
// engines sized for the other graph and rebuilds them. "one-pool" is the
// daemon as it is; "pool-per-size" is the keyed cache it replaced (each
// job finds engines of its own size); "fresh-pool" builds a pool per
// job, the spec-driven dist worker before it kept one for life.
func BenchmarkPoolAcrossSizes(b *testing.B) {
	var sims [2]*sbgp.Simulation
	for i, n := range []int{400, 4000} {
		sims[i] = benchSimulate(
			sbgp.WithGeneratedTopology(n, 1),
			sbgp.WithModels(sbgp.Sec3rd),
			sbgp.WithPairSampling(4, 4),
			sbgp.WithNamedDeployment("t1t2"),
		)
	}
	shared := sbgp.NewEnginePool()
	perSize := [2]*sbgp.EnginePool{sbgp.NewEnginePool(), sbgp.NewEnginePool()}
	for _, arm := range []struct {
		name string
		pool func(i int) *sbgp.EnginePool
	}{
		{"one-pool", func(int) *sbgp.EnginePool { return shared }},
		{"pool-per-size", func(i int) *sbgp.EnginePool { return perSize[i] }},
		{"fresh-pool", func(int) *sbgp.EnginePool { return sbgp.NewEnginePool() }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			pair := func() {
				for i, sim := range sims {
					pool := arm.pool(i)
					res, err := sim.EvaluateJob(sbgp.JobEvalOptions{Pool: pool})
					pool.Release()
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Cells) != 2 {
						b.Fatalf("grid has %d cells", len(res.Cells))
					}
				}
			}
			for start := time.Now(); time.Since(start) < time.Second; {
				pair()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair()
			}
		})
	}
}

// headlineGrid is the headline job as a bare grid on a 4000-AS graph:
// the baseline plus the four named deployments × three models × the
// job's own 6×6 strided pairs, with the simulation that resolved them.
func headlineGrid() (*asgraph.Graph, sweep.Grid, *sbgp.Simulation) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for _, name := range []string{"t1t2", "t1t2cp", "t2", "nonstubs"} {
		sim := benchSimulate(sbgp.WithGraph(g, meta), sbgp.WithNamedDeployment(name))
		deployments = append(deployments, sweep.Deployment{Name: name, Dep: sim.Deployment()})
	}
	sim := benchSimulate(sbgp.WithGraph(g, meta), sbgp.WithPairSampling(6, 6))
	M, D := sim.JobPairs()
	return g, sweep.Grid{Deployments: deployments, Attackers: M, Destinations: D}, sim
}

// BenchmarkSecurityFreeCollapse zooms into the headline job's walk
// (ladder rung sweep.walk_us_per_cell) on either side of the
// security-free collapse, at the default shard size and every core.
// "strided" is the headline grid itself, whose destinations are mostly
// stubs outside the early rollouts, so a large share of the cells are
// security-free and one engine run per (attacker, destination) pair
// serves them all. "bypass" is the case the collapse must leave alone:
// the four named deployments without the baseline row (a baseline cell
// is always security-free) and six destinations drawn inside Tier 2,
// which every one of the four — nonstubs included — secures, so no cell
// is free, no memo slot is ever written, and the run time should equal
// the parent commit's. Each evaluation is of a freshly prepared plan
// (untimed), as a job's is: the memo is the plan's, and a re-evaluated
// plan would serve every free cell from the first evaluation's entries.
func BenchmarkSecurityFreeCollapse(b *testing.B) {
	g, strided, sim := headlineGrid()
	_, tier2 := runner.SamplePairs(strided.Attackers, sim.Tiers().Members[asgraph.TierT2], 0, 6)
	for _, arm := range []struct {
		name string
		grid sweep.Grid
		free bool
	}{
		{"strided", strided, true},
		{"bypass", sweep.Grid{Deployments: strided.Deployments[1:], Attackers: strided.Attackers, Destinations: tier2}, false},
	} {
		b.Run(arm.name, func(b *testing.B) {
			free := 0
			e := core.NewEngine(g, policy.Sec1st)
			for _, dp := range arm.grid.Deployments {
				for _, d := range arm.grid.Destinations {
					if e.SecurityFree(d, asgraph.None, dp.Dep, nil) {
						free++
					}
				}
			}
			if (free > 0) != arm.free {
				b.Fatalf("%d (deployment, destination) combinations are security-free, want some = %v", free, arm.free)
			}
			evaluate := func() {
				b.StopTimer()
				pl, err := arm.grid.Prepare(g)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := pl.Evaluate(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			// An idle core delivers nothing for most of its first second
			// on small VMs (see BenchmarkEvaluateJobWorkers).
			for start := time.Now(); time.Since(start) < time.Second; {
				evaluate()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evaluate()
			}
		})
	}
}

// BenchmarkLeaseRanges zooms into the dist-2w job's worker side (ladder
// rung dist.worker_eval): the headline grid at shard size 16 and one
// worker, evaluated through EvaluateShardRange as one range
// ("one-range"), as the unit-aligned four-shard leases a dist-2w
// coordinator grants served from one plan ("leases-one-plan", a lone
// worker), and as the same leases alternating between two plans
// ("leases-two-plans", two workers, each with its own plan and pool and
// together doing one job's work). Every lease releases its pool, as a dist
// worker's does. The baseline memo is the plan's, so one plan serving
// every lease should cost what one range does; two plans pay each
// security-free pair's baseline once more. The plans are prepared fresh
// for every job, untimed, on a graph generated afresh for the job, as a
// dist worker generates its own: the pools keep their engines warm, but
// no job finds an earlier job's memo in them. Every job's partials are
// merged and checked against one range's bytes, timed, at the same small
// cost in each arm. Each arm reports the engines' from-scratch runs,
// delta steps and fallbacks a job, read from the ranges' ShardStats.
func BenchmarkLeaseRanges(b *testing.B) {
	g, grid, _ := headlineGrid()
	grid.Workers = 1
	prepare := func(g *asgraph.Graph) *sweep.Plan {
		pl, err := grid.Prepare(g)
		if err != nil {
			panic(err)
		}
		return pl
	}
	ref := prepare(g)
	l := ref.Layout(16)
	// The coordinator's cut: whole units, up to four shards a lease.
	units := ref.Units(l)
	var leases []sweep.ShardRange
	for i := 0; i < len(units); {
		r := units[i]
		for i++; i < len(units) && units[i].End-r.Start <= 4; i++ {
			r.End = units[i].End
		}
		leases = append(leases, r)
	}
	pools := []*sweep.EnginePool{sweep.NewEnginePool(), sweep.NewEnginePool()}
	// job evaluates the ranges in order, range i on plan i mod the plan
	// count, adds their counters to st and returns the job's bytes.
	job := func(plans []*sweep.Plan, ranges []sweep.ShardRange, st *sweep.ShardStats) ([]byte, error) {
		var partials []*sweep.ShardPartial
		for i, r := range ranges {
			k := i % len(plans)
			err := plans[k].EvaluateShardRange(context.Background(), l, r, sweep.RangeOptions{
				Pool:  pools[k],
				Stats: st,
				Sink:  func(p *sweep.ShardPartial) error { partials = append(partials, p); return nil },
			})
			pools[k].Release()
			if err != nil {
				return nil, err
			}
		}
		res, err := ref.Merge(l, partials)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteJSON(&buf)
		return buf.Bytes(), err
	}
	whole := []sweep.ShardRange{{End: l.Shards}}
	want, err := job([]*sweep.Plan{prepare(g)}, whole, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name   string
		plans  int
		ranges []sweep.ShardRange
	}{
		{"one-range", 1, whole},
		{"leases-one-plan", 1, leases},
		{"leases-two-plans", 2, leases},
	} {
		b.Run(arm.name, func(b *testing.B) {
			plans := make([]*sweep.Plan, arm.plans)
			var st sweep.ShardStats
			evaluate := func() {
				b.StopTimer()
				jobGraph, _ := topogen.MustGenerate(topogen.Params{N: g.N(), Seed: 1})
				for k := range plans {
					plans[k] = prepare(jobGraph)
				}
				b.StartTimer()
				got, err := job(plans, arm.ranges, &st)
				if err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					b.Fatalf("%s merges to other bytes than one range", arm.name)
				}
			}
			// Warm the pools' engines and the core for a second first (see
			// BenchmarkEvaluateJobWorkers).
			for start := time.Now(); time.Since(start) < time.Second; {
				evaluate()
			}
			st = sweep.ShardStats{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evaluate()
			}
			b.ReportMetric(float64(st.Runs)/float64(b.N), "runs/job")
			b.ReportMetric(float64(st.DeltaSteps)/float64(b.N), "delta-steps/job")
			b.ReportMetric(float64(st.Fallbacks)/float64(b.N), "fallbacks/job")
		})
	}
}

// BenchmarkWhatIfSeries zooms into daemon-small's sbgp.evaluate_job rung:
// a resident service answering a series of what-if jobs on one warm
// 4000-AS topology — t1t2, t2, t1t2cp, nonstubs, t1t2, t2, each the
// baseline plus that deployment over the same 6×6 pairs. "one-pool" runs
// the series through one engine pool, as the daemon does, so only its
// first job runs the pairs' security-free baselines and the rest are
// served from the memo the pool keeps; "fresh-pools" gives every job a
// pool of its own, so every job runs them (and builds its engines). Each
// series starts on a freshly generated graph object with fresh
// simulations, untimed, since a pool keys its memos by the graph object
// and a simulation's plan keeps its own. Both arms' bytes are checked
// equal, job by job, before anything is timed.
func BenchmarkWhatIfSeries(b *testing.B) {
	series := []string{"t1t2", "t2", "t1t2cp", "nonstubs", "t1t2", "t2"}
	simulate := func() []*sbgp.Simulation {
		g, meta := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
		sims := make([]*sbgp.Simulation, len(series))
		for i, name := range series {
			sims[i] = benchSimulate(sbgp.WithGraph(g, meta), sbgp.WithPairSampling(6, 6), sbgp.WithNamedDeployment(name))
		}
		return sims
	}
	shared := sbgp.NewEnginePool()
	arms := []struct {
		name string
		pool func() *sbgp.EnginePool
	}{
		{"one-pool", func() *sbgp.EnginePool { return shared }},
		{"fresh-pools", sbgp.NewEnginePool},
	}
	// run evaluates the series with pools drawn from pool, one per job,
	// and returns each job's bytes.
	run := func(tb testing.TB, pool func() *sbgp.EnginePool, sims []*sbgp.Simulation) [][]byte {
		out := make([][]byte, len(sims))
		for i, sim := range sims {
			p := pool()
			res, err := sim.EvaluateJob(sbgp.JobEvalOptions{Pool: p})
			p.Release()
			if err != nil {
				tb.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				tb.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	want := run(b, arms[1].pool, simulate())
	if got := run(b, arms[0].pool, simulate()); !slices.EqualFunc(got, want, bytes.Equal) {
		b.Fatal("the series through one pool differs from the series through fresh pools")
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			series := func() {
				b.StopTimer()
				sims := simulate()
				b.StartTimer()
				run(b, arm.pool, sims)
			}
			// Warm the shared pool's engines and the core for a second first
			// (see BenchmarkEvaluateJobWorkers).
			for start := time.Now(); time.Since(start) < time.Second; {
				series()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				series()
			}
		})
	}
}

// BenchmarkRolloutSeries is the incremental-evaluation headline: a
// fine-grained nested rollout (one Tier 2 plus its stubs per step, 24
// steps) at the paper's default 4000-AS scale, evaluated as one sweep
// grid — from scratch versus with Incremental delta reuse. The two
// produce byte-identical results; the ratio is the delta path's win on
// rollout-shaped series.
func BenchmarkRolloutSeries(b *testing.B) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for k := 1; k <= 24; k++ {
		deployments = append(deployments, sweep.Deployment{
			Name: fmt.Sprintf("t2x%d", k),
			Dep:  deploy.Build(g, tiers, deploy.Spec{NumTier2: k, IncludeStubs: true}),
		})
	}
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 4, 4)
	for _, mode := range []struct {
		name        string
		incremental sweep.IncrementalMode
	}{
		{"from-scratch", sweep.IncrementalOff},
		{"incremental", sweep.IncrementalAuto},
	} {
		b.Run(mode.name, func(b *testing.B) {
			grid := &sweep.Grid{
				Deployments:  deployments,
				Attackers:    M,
				Destinations: D,
				Incremental:  mode.incremental,
				Workers:      1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := grid.Prepare(g)
				if err != nil {
					b.Fatal(err)
				}
				res, err := pl.Evaluate(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != len(deployments)*policy.NumModels {
					b.Fatalf("grid has %d cells", len(res.Cells))
				}
			}
		})
	}
}

// BenchmarkIdentityOrderWalk measures the scheduled walk where its own
// bookkeeping shows first: an IncrementalOff grid of 2 304 cells on a
// 400-AS graph, so each cell is a ~20 µs from-scratch run and the
// per-cell block lookup and position decode of the singleton-chain plan
// are as large a share of the work as they can get. One worker.
func BenchmarkIdentityOrderWalk(b *testing.B) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 400, Seed: 1})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for k := 1; k <= 3; k++ {
		deployments = append(deployments, sweep.Deployment{
			Name: fmt.Sprintf("t2x%d", 4*k),
			Dep:  deploy.Build(g, tiers, deploy.Spec{NumTier2: 4 * k, IncludeStubs: true}),
		})
	}
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 16, 12)
	grid := &sweep.Grid{
		Deployments:  deployments,
		Attackers:    M,
		Destinations: D,
		Incremental:  sweep.IncrementalOff,
		Workers:      1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh plan (untimed) is a fresh baseline memo, as in a job.
		b.StopTimer()
		pl, err := grid.Prepare(g)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := pl.Evaluate(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) != len(deployments)*policy.NumModels {
			b.Fatalf("grid has %d cells", len(res.Cells))
		}
	}
}

// BenchmarkCrossShardChain measures the sharded evaluator on the same
// fine-grained rollout grid as BenchmarkRolloutSeries, with shards
// small enough (64 cells against 25-step chains × 4 attackers) that
// every chain crosses many shard boundaries. The chain-major schedule
// keeps each chain's cells in consecutive shards and hands the tail
// fixed point across each boundary, so almost no chain head re-runs;
// the from-scratch variant pays a full engine run for every cell of
// every shard.
func BenchmarkCrossShardChain(b *testing.B) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for k := 1; k <= 24; k++ {
		deployments = append(deployments, sweep.Deployment{
			Name: fmt.Sprintf("t2x%d", k),
			Dep:  deploy.Build(g, tiers, deploy.Spec{NumTier2: k, IncludeStubs: true}),
		})
	}
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 4, 4)
	for _, mode := range []struct {
		name        string
		incremental sweep.IncrementalMode
	}{
		{"from-scratch", sweep.IncrementalOff},
		{"chain-major", sweep.IncrementalAuto},
	} {
		b.Run(mode.name, func(b *testing.B) {
			grid := &sweep.Grid{
				Deployments:  deployments,
				Attackers:    M,
				Destinations: D,
				Incremental:  mode.incremental,
				Workers:      1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := grid.Prepare(g)
				if err != nil {
					b.Fatal(err)
				}
				res, err := pl.EvaluateSharded(context.Background(), sweep.ShardOptions{ShardSize: 64}, sweep.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != len(deployments)*policy.NumModels {
					b.Fatalf("grid has %d cells", len(res.Cells))
				}
			}
		})
	}
}

// BenchmarkIncomparableAxis measures the signed-delta forest planner's
// headline case: a deployment axis of pairwise-incomparable scenarios
// (sliding windows over the non-stubs, each sharing half its members
// with the next — the EarlyAdopters/Fig-8 shape) at the paper's default
// 4000-AS scale. No grow-only chain links two of them, so without the
// forest every scenario re-runs from scratch; the forest links
// neighboring windows with remove-then-add deltas whose volume is far
// below a full run.
// Results are byte-identical across the two modes.
func BenchmarkIncomparableAxis(b *testing.B) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	nonStubs := asgraph.NonStubs(g)
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for i := 0; i < 12; i++ {
		// Mid-list non-stubs: real transit ASes whose security status
		// still matters, but not the top hubs, whose every membership
		// change would dirty most of the routing state and mask the
		// scheduling effect being measured.
		lo := 300 + i*8
		win := asgraph.SetOf(g.N(), nonStubs[lo:lo+24]...)
		deployments = append(deployments, sweep.Deployment{
			Name: fmt.Sprintf("win%d", i),
			Dep:  &core.Deployment{Full: win},
		})
	}
	M, D := runner.SamplePairs(nonStubs, runner.AllASes(g.N()), 4, 4)
	for _, mode := range []struct {
		name        string
		incremental sweep.IncrementalMode
	}{
		{"from-scratch", sweep.IncrementalOff},
		{"forest", sweep.IncrementalAuto},
	} {
		b.Run(mode.name, func(b *testing.B) {
			grid := &sweep.Grid{
				Deployments:  deployments,
				Attackers:    M,
				Destinations: D,
				Incremental:  mode.incremental,
				Workers:      1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := grid.Prepare(g)
				if err != nil {
					b.Fatal(err)
				}
				res, err := pl.Evaluate(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != len(deployments)*policy.NumModels {
					b.Fatalf("grid has %d cells", len(res.Cells))
				}
			}
		})
	}
}

// BenchmarkAblationParallelism compares the harness at 1 worker vs all
// cores on the benchmark workload.
func BenchmarkAblationParallelism(b *testing.B) {
	w := benchWorkload(b)
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = runner.EvalMetric(w.G, policy.Sec3rd, policy.Standard, nil, w.M, w.D, workers)
			}
		})
	}
}

// BenchmarkAblationSamplingError quantifies the pair-sampling
// substitution: metric at increasing attacker sample sizes.
func BenchmarkAblationSamplingError(b *testing.B) {
	w := benchWorkload(b)
	for _, mm := range []int{4, 8, 16} {
		M, _ := runner.SamplePairs(asgraph.NonStubs(w.G), nil, mm, 0)
		b.Run(string(rune('0'+mm/4))+"x4-attackers", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = runner.EvalMetric(w.G, policy.Sec3rd, policy.Standard, nil, M, w.D, 0)
			}
		})
	}
}
