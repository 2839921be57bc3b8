package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"sbgp"
	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/dist"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// The traced run. EvaluateJob is opaque from outside, so every traced
// job is pushed through the whole ladder, one rung per layer boundary
// the public API exposes, each rung under its own root span:
//
//	job.*         the workload's own path, traced (and once untraced)
//	rung.oneshot  FromJobSpec → Simulate → EvaluateJob → WriteJSON
//	rung.replay   the same job rebuilt from public pieces: generate,
//	              simulate on the graph, plan, walk, merge, encode
//	rung.commit   the checkpoint layer on the replay's partials, and
//	              EvaluateJob durable / in memory / resumed
//	rung.layers   classify, deployment build, raw engine runs and deltas
//	rung.scaling  workers 1 vs all cores, default and 64-cell shards
//	rung.service  the spec through a resident daemon
//	rung.dist     the spec through coordinator + 2 workers
//
// Every rung that yields result bytes is verified like a job.

// Sampling caps of the engine rung: enough runs for a stable mean,
// few enough that the rung costs a fraction of one job.
const (
	maxCoreRuns   = 256
	maxDeltaPairs = 8
	scalingJobs   = 2 // traced jobs that also run the scaling rung
)

type ladder struct {
	tr     *tracer
	dir    string
	daemon *daemonEnv
	dist   *distEnv
	wire   wireCounts

	// curJob and curRung tag the spans dist workers record on their own
	// goroutines; one job is in flight at a time.
	curJob, curRung atomic.Int64

	warmed  map[int]bool             // spec indices the daemon has seen
	pools   map[int]*sbgp.EnginePool // per-topology warm engines (rung.service comparator)
	samples []sample                 // byte-producing rungs, verified by the caller
	obs     map[string][]float64     // per-job observations that are not span times
}

func (l *ladder) observe(name string, v float64) { l.obs[name] = append(l.obs[name], v) }

// runLadder is the traced run: it alternates untraced and traced jobs
// on the workload's own path, pushes every traced job through the
// ladder, and turns the spans into the per-layer metrics.
func runLadder(cfg runConfig, e env, specs []*sbgp.JobSpec, dir string) (map[string]float64, []sample, error) {
	l := &ladder{
		tr: newTracer(), dir: dir,
		warmed: map[int]bool{}, pools: map[int]*sbgp.EnginePool{}, obs: map[string][]float64{},
	}
	for _, sub := range []string{"daemon", "dist", "ckpt"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, err
		}
	}
	var err error
	if l.daemon, err = openDaemon(filepath.Join(dir, "daemon"), nil, nil); err != nil {
		return nil, nil, err
	}
	defer l.daemon.close()
	if l.dist, err = openDist(filepath.Join(dir, "dist"), &distHooks{wire: &l.wire, open: l.openWorker}); err != nil {
		return nil, nil, err
	}
	defer l.dist.close()

	// runner: the dispatch floor, once per run.
	const items = 1 << 20
	d, _ := l.tr.do(-1, -1, "runner.foreach", func(int) error {
		return runner.ForEach(context.Background(), items, 0, func() int { return 0 }, func(int, int) {})
	})
	l.observe("runner.foreach_ns_per_item", d*1e9/items)

	var plain, traced []float64
	start := time.Now()
	for i := 0; ; i++ {
		if i >= cfg.scale.minJobs && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		p := runJob(e, nil, i, specs)
		t := runJob(e, l.tr, i, specs)
		l.samples = append(l.samples, p, t)
		if p.err == nil && t.err == nil {
			plain = append(plain, p.wall)
			traced = append(traced, t.wall)
		}
		if err := l.rungs(i, i%len(specs), specs[i%len(specs)]); err != nil {
			return nil, nil, fmt.Errorf("ladder job %d: %w", i, err)
		}
	}
	st := l.daemon.srv.Stats()
	l.observe("service.warm_topologies", float64(st.Topologies))
	l.observe("service.warm_engines", float64(st.WarmEngines))
	ds := l.dist.coord.Stats()
	l.observe("dist.duplicates", float64(ds.Duplicates))
	l.observe("dist.leases_expired", float64(ds.LeasesExpired))
	if len(plain) > 0 {
		l.observe("harness.trace_overhead_frac", (median(traced)-median(plain))/median(plain))
	}

	spans := l.tr.snapshot()
	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return nil, nil, err
		}
		if err := writeTrace(cfg.traceOut, cfg.workload.name, spans); err != nil {
			return nil, nil, err
		}
	}
	return l.metrics(spans), l.samples, nil
}

// rungs pushes one spec through every rung of the ladder.
func (l *ladder) rungs(job, specIdx int, spec *sbgp.JobSpec) error {
	tr := l.tr
	keep := func(b []byte, err error) {
		l.samples = append(l.samples, sample{spec: specIdx, sum: sha256.Sum256(b), err: err})
	}

	// rung.oneshot: the opaque in-process job.
	var oneshot float64
	{
		var b []byte
		var err error
		oneshot, err = tr.do(job, -1, "rung.oneshot", func(id int) error {
			b, _, err = oneShot(tr, job, id, spec, sbgp.JobEvalOptions{})
			return err
		})
		keep(b, err)
		if err != nil {
			return err
		}
		l.observe("sbgp.result_bytes", float64(len(b)))
	}

	// rung.replay: the same job from public pieces.
	var (
		g        *sbgp.Graph
		meta     *sbgp.TopologyMeta
		sim      *sbgp.Simulation
		layout   *sbgp.ShardLayout
		partials []*sbgp.ShardPartial
		stats    sbgp.ShardStats
		replay   float64 // Σ of the replay's spans, not the rung's wall
		walk     float64 // the sweep.walk span alone
	)
	_, err := tr.do(job, -1, "rung.replay", func(id int) error {
		step := func(name string, fn func() error) error {
			d, err := tr.do(job, id, name, func(int) error { return fn() })
			replay += d
			if name == "sweep.walk" {
				walk = d
			}
			return err
		}
		if err := step("topogen.generate", func() (err error) {
			g, meta, err = topogen.Generate(topogen.Params{N: spec.Topology.N, Seed: spec.Topology.Seed, SeedSet: true})
			return err
		}); err != nil {
			return err
		}
		if err := step("sbgp.simulate", func() (err error) {
			sim, err = simulateOn(spec, g, meta)
			return err
		}); err != nil {
			return err
		}
		if err := step("sweep.plan", func() (err error) {
			layout, _, err = sim.JobShardPlan()
			return err
		}); err != nil {
			return err
		}
		if err := step("sweep.walk", func() error {
			return sim.EvaluateJobShards(layout, sbgp.ShardRange{End: layout.Shards}, sbgp.ShardRangeOptions{
				Stats: &stats,
				Sink: func(p *sbgp.ShardPartial) error {
					partials = append(partials, p)
					return nil
				},
			})
		}); err != nil {
			return err
		}
		var res *sbgp.Result
		if err := step("sweep.merge", func() (err error) {
			res, err = sim.MergeJobPartials(layout, partials)
			return err
		}); err != nil {
			return err
		}
		var buf bytes.Buffer
		err := step("sbgp.encode", func() error { return res.WriteJSON(&buf) })
		keep(buf.Bytes(), err)
		return err
	})
	if err != nil {
		return err
	}
	l.observe("sbgp.ladder_residual_frac", math.Abs(replay-oneshot)/oneshot)
	l.observe("sweep.units", float64(stats.Units))
	l.observe("sweep.handoff_hits", float64(stats.HandoffHits))
	l.observe("sweep.handoff_misses", float64(stats.HandoffMisses))
	l.observe("sweep.chain_heads", float64(stats.ChainHeads))
	l.observe("sweep.delta_edges", float64(stats.DeltaEdges))
	l.observe("sweep.predicted_volume", float64(stats.PredictedVolume))

	inproc, err := l.commitRung(job, specIdx, spec, g, meta, layout, partials, keep)
	if err != nil {
		return err
	}
	runUS, err := l.layersRung(job, spec, g, meta)
	if err != nil {
		return err
	}
	// The planner's measured payoff: the walk against the same cells run
	// from scratch on as many goroutines as the walk could use.
	used := min(runner.Workers(spec.Workers), stats.Units)
	l.observe("sweep.delta_saving_frac", 1-walk*float64(used)/(float64(layout.Cells)*runUS/1e6))
	l.observe("sweep.walk_us_per_cell", walk*1e6/float64(layout.Cells))

	if job < scalingJobs {
		if err := l.scalingRung(job, spec, g, meta); err != nil {
			return err
		}
	}
	if err := l.serviceRung(job, specIdx, spec, inproc, keep); err != nil {
		return err
	}
	return l.distRung(job, spec, layout.Cells, oneshot, keep)
}

// simulateOn builds the spec's simulation on an already generated graph.
func simulateOn(spec *sbgp.JobSpec, g *sbgp.Graph, meta *sbgp.TopologyMeta, extra ...sbgp.Option) (*sbgp.Simulation, error) {
	sc, err := sbgp.FromJobSpecOnGraph(spec, g, meta, extra...)
	if err != nil {
		return nil, err
	}
	return sc.Simulate()
}

// commitRung measures the checkpoint layer both ways: the writer alone
// on the replay's partials (append + fsync per record, then parse), and
// EvaluateJob durable, in memory, and resumed from half. It returns the
// in-memory evaluation's seconds, the service rung's comparator.
func (l *ladder) commitRung(job, specIdx int, spec *sbgp.JobSpec, g *sbgp.Graph, meta *sbgp.TopologyMeta,
	layout *sbgp.ShardLayout, partials []*sbgp.ShardPartial, keep func([]byte, error)) (mem float64, err error) {
	tr := l.tr
	ckpt := func(name string) string { return filepath.Join(l.dir, "ckpt", fmt.Sprintf("%s-%d.ckpt", name, job)) }
	_, err = tr.do(job, -1, "rung.commit", func(id int) error {
		path := ckpt("writer")
		defer os.Remove(path)
		d, err := tr.do(job, id, "sweep.commit", func(int) error {
			cw, err := sbgp.OpenCheckpointWriter(path, layout, false)
			if err != nil {
				return err
			}
			for _, p := range partials {
				if _, err := cw.Add(p); err != nil {
					cw.Close()
					return err
				}
			}
			return cw.Close()
		})
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		l.observe("sweep.commit_us_per_record", d*1e6/float64(len(partials)))
		l.observe("sweep.commit_records", float64(len(partials)))
		l.observe("sweep.commit_bytes", float64(fi.Size()))
		d, err = tr.do(job, id, "sweep.resume_parse", func(int) error {
			cw, err := sbgp.OpenCheckpointWriter(path, layout, true)
			if err != nil {
				return err
			}
			if !cw.Complete() {
				cw.Close()
				return fmt.Errorf("reopened checkpoint holds %d of %d shards", cw.HaveCount(), cw.Shards())
			}
			return cw.Close()
		})
		if err != nil {
			return err
		}
		l.observe("sweep.resume_parse_us_per_record", d*1e6/float64(len(partials)))

		// EvaluateJob on the warm graph: in memory (with the warm pool —
		// also the service rung's comparator), durable, resumed.
		pool := l.pools[specIdx]
		if pool == nil {
			pool = sbgp.NewEnginePool()
			l.pools[specIdx] = pool
		}
		eval := func(name string, opts sbgp.JobEvalOptions) (float64, error) {
			return tr.do(job, id, name, func(sid int) error {
				sim, err := simulateOn(spec, g, meta)
				if err != nil {
					return err
				}
				b, _, err := evaluateAndEncode(tr, job, sid, sim, opts)
				keep(b, err)
				return err
			})
		}
		mem, err = eval("sweep.mem", sbgp.JobEvalOptions{Pool: pool})
		pool.Release()
		if err != nil {
			return err
		}
		fresh, half := ckpt("fresh"), ckpt("half")
		defer os.Remove(fresh)
		defer os.Remove(half)
		dur, err := eval("sweep.fresh", sbgp.JobEvalOptions{Checkpoint: fresh})
		if err != nil {
			return err
		}
		if _, _, err := copyCheckpointHead(fresh, half); err != nil {
			return err
		}
		res, err := eval("sweep.resume", sbgp.JobEvalOptions{Checkpoint: half, Resume: true})
		if err != nil {
			return err
		}
		l.observe("sweep.fresh_s_p50", dur)
		l.observe("sweep.resume_s_p50", res)
		l.observe("sweep.commit_share", (dur-mem)/dur)
		return nil
	})
	return mem, err
}

// namedSpec mirrors the facade's standard deployments, which it resolves
// privately at Simulate time.
func namedSpec(name string, meta *sbgp.TopologyMeta) (deploy.Spec, error) {
	switch name {
	case "t1t2":
		return deploy.Spec{NumTier1: 13, NumTier2: 100, IncludeStubs: true}, nil
	case "t1t2cp":
		return deploy.Spec{NumTier1: 13, NumTier2: 100, CPs: meta.CPs, IncludeStubs: true}, nil
	case "t2":
		return deploy.Spec{NumTier2: 100, IncludeStubs: true}, nil
	case "nonstubs":
		return deploy.Spec{AllNonStubs: true}, nil
	}
	return deploy.Spec{}, fmt.Errorf("no deployment spec for %q", name)
}

// layersRung calls the layers under the facade directly: tier
// classification, deployment build, from-scratch engine runs over a
// sample of the job's cells, and RunDelta steps along the deployment
// axis in spec order. It returns the mean from-scratch run in µs.
func (l *ladder) layersRung(job int, spec *sbgp.JobSpec, g *sbgp.Graph, meta *sbgp.TopologyMeta) (runUS float64, err error) {
	tr := l.tr
	_, err = tr.do(job, -1, "rung.layers", func(id int) error {
		var tiers *asgraph.Tiers
		tr.do(job, id, "asgraph.classify", func(int) error {
			tiers = asgraph.Classify(g, meta.CPs, nil)
			return nil
		})
		deps := []*core.Deployment{nil} // the implicit baseline
		if _, err := tr.do(job, id, "deploy.build", func(int) error {
			for _, d := range spec.Deployments {
				ds := deploy.Spec{}
				if d.Spec != nil {
					ds = *d.Spec
				} else {
					var err error
					if ds, err = namedSpec(d.Named, meta); err != nil {
						return err
					}
				}
				deps = append(deps, deploy.Build(g, tiers, ds))
			}
			return nil
		}); err != nil {
			return err
		}
		atk, err := core.ParseAttack(spec.Attack)
		if err != nil {
			return err
		}
		lp := policy.LocalPref{K: spec.LPK}
		engines := make([]*core.Engine, len(spec.Models))
		for i, m := range spec.Models {
			engines[i] = core.NewEngineLP(g, policy.Model(m-1), lp)
		}
		sim, err := simulateOn(spec, g, meta)
		if err != nil {
			return err
		}
		ms, ds := sim.JobPairs()

		// From-scratch runs over an even sample of the cell space.
		type cell struct {
			e    *core.Engine
			dep  *core.Deployment
			d, m sbgp.AS
		}
		var cells []cell
		total := len(deps) * len(engines) * len(ds) * len(ms)
		stride := max(1, total/maxCoreRuns)
		for c := 0; c < total; c += stride {
			mi := c % len(ms)
			di := c / len(ms) % len(ds)
			ei := c / (len(ms) * len(ds)) % len(engines)
			si := c / (len(ms) * len(ds) * len(engines))
			if ms[mi] != ds[di] {
				cells = append(cells, cell{engines[ei], deps[si], ds[di], ms[mi]})
			}
		}
		if len(cells) == 0 {
			return fmt.Errorf("no valid cell to run")
		}
		// Two untimed passes: the first grows every engine buffer to its
		// steady size, the second counts allocations run by run. Mallocs
		// is process-wide and the daemon and dist rungs keep goroutines
		// polling in the background, so the per-run median — not the
		// mean — is the engine's own steady-state count.
		var m0, m1 runtime.MemStats
		allocs := make([]float64, len(cells))
		for pass := 0; pass < 2; pass++ {
			for i, c := range cells {
				runtime.ReadMemStats(&m0)
				c.e.RunAttack(c.d, c.m, c.dep, atk)
				runtime.ReadMemStats(&m1)
				allocs[i] = float64(m1.Mallocs - m0.Mallocs)
			}
		}
		l.observe("core.allocs_per_run", median(allocs))
		d, _ := tr.do(job, id, "core.run", func(int) error {
			for _, c := range cells {
				c.e.RunAttack(c.d, c.m, c.dep, atk)
			}
			return nil
		})
		runUS = d * 1e6 / float64(len(cells))
		l.observe("core.run_us", runUS)

		// RunDelta along the axis, each chain seeded by one untimed
		// from-scratch run at the baseline.
		var delta time.Duration
		steps, pairs := 0, 0
		sid := tr.begin(job, id, "core.delta")
		for _, e := range engines {
			pairs = 0
			for _, dst := range ds {
				for _, m := range ms {
					if m == dst || pairs >= maxDeltaPairs {
						continue
					}
					pairs++
					o := e.RunAttack(dst, m, deps[0], atk)
					for i := 1; i < len(deps); i++ {
						added, removed := core.DeploymentDelta(deps[i-1], deps[i])
						t0 := time.Now()
						o = e.RunDelta(o, added, removed, deps[i], atk)
						delta += time.Since(t0)
						steps++
					}
				}
			}
		}
		tr.end(sid)
		if steps == 0 {
			return fmt.Errorf("no delta step to run")
		}
		deltaUS := delta.Seconds() * 1e6 / float64(steps)
		l.observe("core.delta_us", deltaUS)
		l.observe("core.delta_speedup", runUS/deltaUS)
		return nil
	})
	return runUS, err
}

// scalingRung evaluates the job on the warm graph with one worker and
// with all cores, at the default shard size and at 64 cells per shard.
// Efficiency is t(1) ÷ (cores · t(cores)): 1 is perfect scaling, 1/cores
// is none.
func (l *ladder) scalingRung(job int, spec *sbgp.JobSpec, g *sbgp.Graph, meta *sbgp.TopologyMeta) error {
	cores := runtime.GOMAXPROCS(0)
	_, err := l.tr.do(job, -1, "rung.scaling", func(id int) error {
		for _, v := range []struct {
			metric string
			shard  int
		}{{"sweep.scaling_eff", 0}, {"sweep.scaling_eff_s64", 64}} {
			var t [2]float64
			for i, workers := range []int{1, cores} {
				sim, err := simulateOn(spec, g, meta, sbgp.WithWorkers(workers), sbgp.WithShardSize(v.shard))
				if err != nil {
					return err
				}
				t[i], err = l.tr.do(job, id, fmt.Sprintf("sweep.evaluate_w%d_s%d", workers, v.shard), func(int) error {
					_, err := sim.EvaluateJob(sbgp.JobEvalOptions{})
					return err
				})
				if err != nil {
					return err
				}
			}
			l.observe(v.metric, t[0]/(float64(cores)*t[1]))
		}
		return nil
	})
	return err
}

// serviceRung submits the spec to the resident daemon (topology and
// engines warm) and sets it against the in-process evaluation of the
// same spec on the same warm graph and pool (inproc seconds, measured by
// commitRung).
func (l *ladder) serviceRung(job, specIdx int, spec *sbgp.JobSpec, inproc float64, keep func([]byte, error)) error {
	if !l.warmed[specIdx] {
		res, err := l.daemon.job(nil, job, -1, spec)
		keep(res.bytes, err)
		if err != nil {
			return err
		}
		l.warmed[specIdx] = true
	}
	var res jobResult
	_, err := l.tr.do(job, -1, "rung.service", func(id int) (err error) {
		res, err = l.daemon.job(l.tr, job, id, spec)
		return err
	})
	keep(res.bytes, err)
	if err != nil {
		return err
	}
	l.observe("service.job_ms", res.wall*1e3)
	l.observe("service.overhead_ms_p50", (res.wall-inproc)*1e3)
	l.observe("service.overhead_frac", (res.wall-inproc)/res.wall)
	return nil
}

// distRung submits the spec to the dist-wired daemon. A spec that names
// no shard size is cut into ~32 shards first, or the second worker
// would have nothing to lease.
func (l *ladder) distRung(job int, spec *sbgp.JobSpec, cells int, oneshot float64, keep func([]byte, error)) error {
	ds := spec.Clone()
	if ds.ShardSize == 0 {
		ds.ShardSize = max(1, cells/32)
	}
	c0, s0 := l.wire.snapshot(), l.dist.coord.Stats()
	var res jobResult
	_, err := l.tr.do(job, -1, "rung.dist", func(id int) (err error) {
		l.curJob.Store(int64(job))
		l.curRung.Store(int64(id))
		res, err = l.dist.job(l.tr, job, id, ds)
		return err
	})
	keep(res.bytes, err)
	if err != nil {
		return err
	}
	c1, s1 := l.wire.snapshot(), l.dist.coord.Stats()
	l.observe("dist.job_s", res.wall)
	l.observe("dist.leases_per_job", float64(s1.LeasesGranted-s0.LeasesGranted))
	l.observe("dist.shards_accepted_per_job", float64(s1.ShardsAccepted-s0.ShardsAccepted))
	l.observe("dist.http_calls_per_job", float64(c1[0]-c0[0]))
	l.observe("dist.bytes_up_per_job", float64(c1[1]-c0[1]))
	l.observe("dist.bytes_down_per_job", float64(c1[2]-c0[2]))
	l.observe("dist.speedup_vs_oneshot", oneshot/res.wall)
	return nil
}

func (c *wireCounts) snapshot() [3]int64 {
	return [3]int64{c.calls.Load(), c.up.Load(), c.down.Load()}
}

// openWorker is the dist workers' Open hook in the traced run: the
// default spec-driven evaluator (rebuild the simulation from the
// coordinator's spec, single-threaded, own engine pool), with a span
// around the rebuild and around every lease it evaluates.
func (l *ladder) openWorker(ctx context.Context, specJSON json.RawMessage) (dist.Evaluator, error) {
	job, rung := int(l.curJob.Load()), int(l.curRung.Load())
	ev := &workerEval{l: l, job: job, rung: rung, pool: sbgp.NewEnginePool()}
	_, err := l.tr.do(job, rung, "dist.worker_open", func(int) error {
		spec, err := sbgp.ReadJobSpec(bytes.NewReader(specJSON))
		if err != nil {
			return err
		}
		sc, err := sbgp.FromJobSpec(spec, sbgp.WithContext(ctx), sbgp.WithWorkers(1))
		if err != nil {
			return err
		}
		if ev.sim, err = sc.Simulate(); err != nil {
			return err
		}
		ev.layout, _, err = ev.sim.JobShardPlan()
		return err
	})
	if err != nil {
		return nil, err
	}
	return ev, nil
}

type workerEval struct {
	l         *ladder
	job, rung int
	sim       *sbgp.Simulation
	pool      *sbgp.EnginePool
	layout    *sbgp.ShardLayout
}

func (e *workerEval) ShardPlan() (*sbgp.ShardLayout, error) { return e.layout, nil }

func (e *workerEval) EvaluateShards(r sbgp.ShardRange, sink func(*sbgp.ShardPartial) error) error {
	defer e.pool.Release()
	_, err := e.l.tr.do(e.job, e.rung, "dist.worker_eval", func(int) error {
		return e.sim.EvaluateJobShards(e.layout, r, sbgp.ShardRangeOptions{Sink: sink, Pool: e.pool})
	})
	return err
}

// metrics turns the spans and observations of a traced run into the
// per-layer metrics: span-derived times are the median over jobs of the
// span's self time within its rung, direct observations the median over
// jobs, exact counts the first job's.
func (l *ladder) metrics(spans []span) map[string]float64 {
	self := perJobSelf(spans)
	spanMS := func(rung, name string) float64 { return median(self[spanKey{rung, name}]) * 1e3 }

	// Worker busy share: evaluation time on both workers over the two
	// workers' share of the job's wall time.
	var busy []float64
	evals := self[spanKey{"rung.dist", "dist.worker_eval"}]
	for i, wall := range l.obs["dist.job_s"] {
		if i < len(evals) {
			busy = append(busy, evals[i]/(distWorkers*wall))
		}
	}

	m := map[string]float64{
		"topogen.generate_ms": spanMS("rung.replay", "topogen.generate"),
		"asgraph.classify_ms": spanMS("rung.layers", "asgraph.classify"),
		"deploy.build_ms":     spanMS("rung.layers", "deploy.build"),
		"sweep.plan_ms":       spanMS("rung.replay", "sweep.plan"),
		"sweep.walk_s":        spanMS("rung.replay", "sweep.walk") / 1e3,
		"sweep.merge_ms":      spanMS("rung.replay", "sweep.merge"),
		"sbgp.simulate_ms":    spanMS("rung.replay", "sbgp.simulate"),
		"sbgp.evaluate_job_s": spanMS("rung.oneshot", "sbgp.evaluate_job") / 1e3,
		"sbgp.encode_ms":      spanMS("rung.oneshot", "sbgp.encode"),

		"service.submit_ms_p50": spanMS("rung.service", "service.submit"),
		"service.wait_ms_p50":   spanMS("rung.service", "service.wait"),
		"service.result_ms_p50": spanMS("rung.service", "service.result"),
		"service.job_ms_max":    quantile(l.obs["service.job_ms"], 1),
		"dist.worker_open_ms":   spanMS("rung.dist", "dist.worker_open") / distWorkers,
		"dist.worker_busy_frac": median(busy),
		"harness.spans":         float64(len(spans)),
	}
	// Exact counts are a property of the input, and how many traced jobs
	// fit in the time box is not: they are read off the first traced job
	// (the cycle's first spec), so that two runs on one seed report them
	// identical.
	for _, name := range exactCounts {
		if obs := l.obs[name]; len(obs) > 0 {
			m[name] = obs[0]
		}
	}
	// Everything else was observed directly, once per job.
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = median(l.obs[d.Name])
		}
	}
	return m
}
