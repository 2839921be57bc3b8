// Benchmarks of two kinds, and only two. BenchmarkExperiments
// regenerates every table and figure of the paper's evaluation (the
// E1–E27 index in DESIGN.md), one sub-benchmark per E-index, at
// benchmark scale (an 800-AS workload with sampled pairs); cmd/experiments
// runs the same experiments at full scale. The rest are zoom lenses: each
// measures a path that no BENCHMARK.json workload or ladder rung
// (bench/README.md) measures on its own, and its comment names the rung
// it zooms into or the path only it reaches. Everything else is measured
// by `go run -C bench .`, not here. Run:
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench 'Experiments/E7$'
//
// `make bench-smoke` runs every benchmark once, so their checks run in CI.
package sbgp_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// The experiments run on the headline job at benchmark scale — baseline
// plus the named rollout endpoints over 8×10 sampled pairs on 800 ASes —
// and on the same job on the IXP-augmented graph (E25), each simulated
// once per test binary.
var (
	workloadOnce sync.Once
	bw, bwIXP    *exp.Workload
)

func benchSimulate(opts ...sbgp.Option) *sbgp.Simulation {
	sim, err := sbgp.NewScenario(opts...).Simulate()
	if err != nil {
		panic(err)
	}
	return sim
}

func benchWorkload() *exp.Workload {
	workloadOnce.Do(func() {
		workload := func(extra ...sbgp.Option) *exp.Workload {
			w, err := exp.NewWorkload(benchSimulate(append([]sbgp.Option{
				sbgp.WithGeneratedTopology(800, 1),
				sbgp.WithPairSampling(8, 10),
				sbgp.WithNamedDeployment("t1t2"),
				sbgp.WithNamedDeployment("t2"),
				sbgp.WithNamedDeployment("nonstubs"),
			}, extra...)...), 30)
			if err != nil {
				panic(err)
			}
			return w
		}
		bw, bwIXP = workload(), workload(sbgp.WithIXPAugmentation())
	})
	return bw
}

// An experiment is one row of BenchmarkExperiments: setup runs untimed
// and returns the timed op, which takes the iteration index. Where two
// E-indices are one computation here, one row carries both.
type experiment struct {
	name  string
	setup func(b *testing.B) func(i int)
}

// onWorkload is a row whose op is one call on the benchmark workload.
func onWorkload(op func(w *exp.Workload)) func(*testing.B) func(int) {
	return func(*testing.B) func(int) {
		w := benchWorkload()
		return func(int) { op(w) }
	}
}

// fixture is a builder over n ASes holding the given provider→customer
// edges: the paper's hand-drawn figures.
func fixture(n int, edges [][2]asgraph.AS) *asgraph.Builder {
	gb := asgraph.NewBuilder(n)
	for _, e := range edges {
		gb.AddProviderCustomer(e[0], e[1])
	}
	return gb
}

// lastStep is the full deployment of a rollout.
func lastStep(steps []deploy.Step) *core.Deployment { return steps[len(steps)-1].Deployment }

var experiments = []experiment{
	// §4.2: H_V,V(∅) with origin authentication only. The op plans the
	// one-cell grid and builds its engines, like every other experiment.
	{"E1", func(b *testing.B) func(int) {
		w := benchWorkload()
		return func(int) {
			if m := w.Baseline(policy.Sec3rd, policy.Standard); m.Lo <= 0 {
				b.Fatal("degenerate baseline")
			}
		}
	}},
	// Fig. 3, and §4.7's by-source-tier fold ("figure omitted") of the
	// same walk.
	{"E2+E6", onWorkload(func(w *exp.Workload) { w.Partitions(policy.Standard) })},
	// Fig. 4 (security 3rd slice).
	{"E3", onWorkload(func(w *exp.Workload) { w.PartitionsByDestTier(policy.Standard) })},
	// Fig. 5. The computation shares E3's pass; the row isolates the
	// security 2nd recursion by running the partitioner directly.
	{"E4", func(*testing.B) func(int) {
		w := benchWorkload()
		p := core.NewPartitioner(w.G, policy.Standard)
		return func(i int) {
			d, m := w.D[i%len(w.D)], w.M[i%len(w.M)]
			if d == m {
				m = w.M[(i+1)%len(w.M)]
			}
			p.Run(d, m).Counts(policy.Sec2nd)
		}
	}},
	// Fig. 6.
	{"E5", onWorkload(func(w *exp.Workload) { w.PartitionsByAttackerTier(policy.Standard) })},
	// Fig. 7(a): the Tier 1+2 rollout with simplex error bars.
	{"E7", func(*testing.B) func(int) {
		w := benchWorkload()
		steps, simplex := deploy.Tier12Rollout(w.G, w.Tiers, false), deploy.Tier12Rollout(w.G, w.Tiers, true)
		return func(int) {
			w.Rollout(steps, w.D, policy.Standard)
			w.Rollout(simplex, w.D, policy.Standard)
		}
	}},
	// Fig. 7(b), and Fig. 9's per-destination sequence: the secure
	// destinations' deltas at the last Tier 1+2 step.
	{"E8+E10", func(*testing.B) func(int) {
		w := benchWorkload()
		dep := lastStep(deploy.Tier12Rollout(w.G, w.Tiers, false))
		return func(int) { w.SecureDestDeltas(dep, policy.Standard) }
	}},
	// Fig. 8.
	{"E9", func(*testing.B) func(int) {
		w := benchWorkload()
		steps := deploy.Tier12CPRollout(w.G, w.Tiers, w.Meta.CPs, false)
		return func(int) { w.Rollout(steps, w.Meta.CPs, policy.Standard) }
	}},
	// Fig. 10.
	{"E11", func(*testing.B) func(int) {
		w := benchWorkload()
		dep := lastStep(deploy.Tier2Rollout(w.G, w.Tiers, false))
		return func(int) { w.SecureDestDeltas(dep, policy.Standard) }
	}},
	// Fig. 11.
	{"E12", func(*testing.B) func(int) {
		w := benchWorkload()
		steps := deploy.Tier2Rollout(w.G, w.Tiers, false)
		return func(int) { w.Rollout(steps, w.D, policy.Standard) }
	}},
	// Fig. 12.
	{"E13", func(*testing.B) func(int) {
		w := benchWorkload()
		dep := deploy.Build(w.G, w.Tiers, deploy.Spec{AllNonStubs: true})
		return func(int) { w.SecureDestDeltas(dep, policy.Standard) }
	}},
	// §5.3.1: every choice of early adopters.
	{"E14", onWorkload(func(w *exp.Workload) {
		for c := range exp.NumEarlyAdopters {
			w.EarlyAdopter(c, policy.Standard)
		}
	})},
	// Fig. 13.
	{"E15", onWorkload(func(w *exp.Workload) { w.CPFate(policy.Sec3rd, policy.Standard) })},
	// Fig. 16, and Table 3, which reads the same accounting's fields.
	{"E16+E17", onWorkload(func(w *exp.Workload) { w.RootCause(policy.Standard) })},
	// Fig. 1: the full wedgie sequence (intended state, flap, hysteresis)
	// in the message-level simulator.
	{"E18", func(*testing.B) func(int) {
		g := fixture(6, [][2]asgraph.AS{{1, 0}, {5, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}}).MustBuild()
		pl := []bgpsim.Placement{bgpsim.First, bgpsim.NotDeployed, bgpsim.Third, bgpsim.First, bgpsim.Third, bgpsim.First}
		return func(int) {
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
	}},
	// Fig. 2: one downgrade scenario in the routing-outcome engine.
	{"E19", func(b *testing.B) func(int) {
		gb := fixture(6, [][2]asgraph.AS{{0, 1}, {0, 4}, {2, 3}, {3, 5}})
		gb.AddPeer(2, 0)
		gb.AddPeer(2, 1)
		g := gb.MustBuild()
		dep := &core.Deployment{Full: asgraph.SetOf(6, 0, 1, 4)}
		e := core.NewEngine(g, policy.Sec2nd)
		return func(int) {
			normal := e.RunNormal(0, dep).Clone()
			if core.CountDowngraded(normal, e.Run(0, 5, dep)) != 1 {
				b.Fatal("downgrade disappeared")
			}
		}
	}},
	// Figs. 14, 15, 17: the root-cause accounting over the Figure 14
	// fixture.
	{"E20", func(b *testing.B) func(int) {
		g := fixture(10, [][2]asgraph.AS{{1, 0}, {1, 2}, {4, 0}, {5, 4}, {6, 5}, {6, 2}, {2, 3}, {7, 3}, {7, 8}, {8, 9}}).MustBuild()
		dep := &core.Deployment{Full: asgraph.SetOf(10, 0, 4, 5, 6, 2)}
		return func(int) {
			accs, err := rootcause.Evaluate(context.Background(), g, policy.Standard, dep,
				[]asgraph.AS{9}, []asgraph.AS{0}, 1)
			if err != nil || accs[policy.Sec2nd].CollateralDamage <= 0 {
				b.Fatal("collateral damage disappeared")
			}
		}
	}},
	// Thm. 2.1: message-level convergence to the engine's stable state
	// under a randomized schedule.
	{"E21", func(*testing.B) func(int) {
		g, _ := topogen.MustGenerate(topogen.Params{N: 60, Seed: 11, TransitFrac: 0.35, NumCPs: 3, NumIXPs: 3})
		full := asgraph.NewSet(g.N())
		for v := 0; v < g.N(); v += 2 {
			full.Add(asgraph.AS(v))
		}
		pl := bgpsim.UniformPlacements(g, policy.Sec2nd, full)
		rng := rand.New(rand.NewSource(1))
		return func(int) {
			s := bgpsim.New(g, pl)
			s.Announce(3)
			s.Attack(40, 3)
			s.RunRandom(0, rng)
		}
	}},
	// Thm. 3.1: the downgrade count under security 1st, one workload pair
	// an op.
	{"E22", func(*testing.B) func(int) {
		w := benchWorkload()
		e := core.NewEngine(w.G, policy.Sec1st)
		dep := lastStep(deploy.Tier12Rollout(w.G, w.Tiers, false))
		return func(i int) {
			if d, m := w.D[i%len(w.D)], w.M[i%len(w.M)]; d != m {
				normal := e.RunNormal(d, dep).Clone()
				core.CountDowngraded(normal, e.Run(d, m, dep))
			}
		}
	}},
	// Thm. 6.1: nested-deployment happiness under security 3rd, one
	// workload pair an op.
	{"E23", func(b *testing.B) func(int) {
		w := benchWorkload()
		e := core.NewEngine(w.G, policy.Sec3rd)
		steps := deploy.Tier12Rollout(w.G, w.Tiers, false)
		small, big := steps[0].Deployment, lastStep(steps)
		return func(i int) {
			d, m := w.D[i%len(w.D)], w.M[i%len(w.M)]
			if d == m {
				return
			}
			loS, _ := e.Run(d, m, small).HappyBounds()
			if loT, _ := e.Run(d, m, big).HappyBounds(); loT < loS {
				b.Fatal("monotonicity violated")
			}
		}
	}},
	// Thm. 5.1: exact Max-k-Security on the Appendix I gadget.
	{"E24", func(b *testing.B) func(int) {
		gd := maxk.BuildGadget(3, [][]int{{0, 1}, {1, 2}, {0, 2}}, 2)
		return func(int) {
			if !gd.Satisfiable(policy.Sec3rd) {
				b.Fatal("gadget unsatisfiable")
			}
		}
	}},
	// App. J: baseline + partitions on the IXP-augmented graph.
	{"E25", func(*testing.B) func(int) {
		benchWorkload()
		return func(int) {
			bwIXP.Baseline(policy.Sec3rd, policy.Standard)
			bwIXP.Partitions(policy.Standard)
		}
	}},
	// App. K, Figs. 24–25: the LP2 local-preference variant.
	{"E26", onWorkload(func(w *exp.Workload) { w.Partitions(policy.LP2) })},
	// Table 1: the tier taxonomy.
	{"E27", onWorkload(func(w *exp.Workload) { asgraph.Classify(w.G, w.Meta.CPs, nil) })},
}

// BenchmarkExperiments regenerates E1–E27: one sub-benchmark per row of
// experiments, its setup untimed and one op a full experiment.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments {
		b.Run(e.name, func(b *testing.B) {
			op := e.setup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		})
	}
}

// TestExperimentsCoverTheIndex holds BenchmarkExperiments to DESIGN.md's
// index: E1–E27, each in exactly one row.
func TestExperimentsCoverTheIndex(t *testing.T) {
	var got, want []string
	for _, e := range experiments {
		got = append(got, strings.Split(e.name, "+")...)
	}
	for n := 1; n <= 27; n++ {
		want = append(want, fmt.Sprintf("E%d", n))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("the rows name %v, want E1–E27 once each", got)
	}
}

// --- Zoom lenses ---

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

// warm runs op for a second before a lens times it: a core that has
// idled delivers nothing for most of its first second on small VMs,
// which would read as a slower arm.
func warm(op func()) {
	for start := time.Now(); time.Since(start) < time.Second; {
		op()
	}
}

// BenchmarkSecurityFreeCollapse zooms into the headline job's walk (rung
// sweep.walk_us_per_cell) on either side of the security-free collapse,
// at the default shard size and every core. "strided" is the headline
// grid, where most cells are security-free and one engine run per pair
// serves them all. "bypass" is the side only this lens measures, since
// every workload's grid has a baseline row (always free): the four named
// deployments over six Tier 2 destinations, which all four secure, so no
// cell is free and no memo slot is written. Each evaluation is of a fresh
// plan (untimed), as a job's is: the memo is the plan's.
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
			warm(evaluate)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evaluate()
			}
		})
	}
}

// BenchmarkLeaseRanges zooms into dist-2w's worker side (rung
// dist.worker_eval): the headline grid at shard size 16 and one worker,
// through EvaluateShardRange as one range ("one-range"), as dist-2w's
// unit-aligned four-shard leases on one plan ("leases-one-plan"), and as
// the same leases alternating between two plans and pools
// ("leases-two-plans"). Only this lens prices the split itself: the rung
// times both workers' leases together, and two plans pay each
// security-free pair's baseline once more. Every job gets a fresh graph
// and fresh plans, untimed, as a dist worker does; its merged bytes are
// checked against one range's, and each arm reports the engines' runs,
// delta steps and fallbacks a job.
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
			warm(evaluate) // the pools' engines too
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
// six what-if jobs (t1t2, t2, t1t2cp, nonstubs, t1t2, t2, each with the
// baseline, over the same 6×6 pairs) on one warm 4000-AS topology.
// "one-pool" runs them through one engine pool, as the daemon does, so
// only the first job runs the security-free baselines; "fresh-pools"
// gives each job its own. Only this lens sets the two side by side: the
// daemon always has one pool. Each series starts on a fresh graph object
// and fresh simulations (untimed), since a pool keys its memos by the
// graph object; both arms' bytes are checked equal first.
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
			warm(series) // the shared pool's engines too
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				series()
			}
		})
	}
}

// BenchmarkIdentityOrderWalk times the identity-order walk, which no
// workload runs (each plans incremental walks): an IncrementalOff grid of
// 2 304 cells on a 400-AS graph, one worker, so each cell is a ~20 µs
// from-scratch run and the per-cell block lookup and position decode of
// the singleton-chain plan are as large a share of the work as they get.
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
