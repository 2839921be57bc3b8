package main

import (
	"fmt"

	"sbgp"
)

// A workload is one closed-loop traffic mix: a cycle of job specs (one
// per topology seed derived from the run seed) and the path they are
// pushed through. The timed loop walks the cycle round-robin, so every
// number a run reports is an average over the cycle's topologies rather
// than a property of one graph — the per-topology job time varies by
// ~10% between generator seeds, and a run over a single topology would
// carry that straight into the seed-to-seed spread.
type workload struct {
	name string
	why  string
	// path selects the execution environment (env.go).
	path string
	// specs builds the cycle for a run seed at a scale.
	specs func(seed int64, sc scale) []*sbgp.JobSpec
	// warm is how many leading specs of the cycle run untimed during
	// set-up (0 means the whole cycle).
	warm int
}

// scale sizes the workloads: full is the benchmark, smoke is the tier-1
// test pass over the same five paths.
type scale struct {
	name   string
	bigN   int // the "4000-AS" topologies
	smallN int // the durable workload's topology
	cycle  int // topologies per cycle (one-shot and dist paths)
	daemon int // topologies per cycle behind the daemon (≤ its warm cache)
	// setups is how many times a run builds and warms its environment;
	// setup_s is the median. The first build in a process pays cold page
	// faults and heap growth, so one sample would mostly measure the Go
	// runtime.
	setups int
	// minJobs is the least number of jobs a run times whatever its time
	// box: at smoke scale the box is zero and this is the whole run.
	minJobs int
}

var (
	fullScale  = scale{name: "full", bigN: 4000, smallN: 400, cycle: 40, daemon: 8, setups: 9, minJobs: 1}
	smokeScale = scale{name: "smoke", bigN: 300, smallN: 120, cycle: 2, daemon: 2, setups: 1, minJobs: 2}
)

// Paths.
const (
	pathOneShot = "oneshot"
	pathDurable = "durable"
	pathDaemon  = "daemon"
	pathDist    = "dist"
)

// topoSeed derives the j-th topology seed of a run: disjoint ranges per
// run seed, so S and S+1 share no topology.
func topoSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// headlineDeployments is the paper's standard deployment axis (after
// the implicit baseline).
func headlineDeployments() []sbgp.JobDeployment {
	return []sbgp.JobDeployment{{Named: "t1t2"}, {Named: "t1t2cp"}, {Named: "t2"}, {Named: "nonstubs"}}
}

// rolloutDeployments is a nested Tier 2 rollout: step k secures the top
// k Tier 2s and their stubs, so consecutive steps differ by one transit
// AS and its stub customers — the shape RunDelta is built for.
func rolloutDeployments(steps int) []sbgp.JobDeployment {
	deps := make([]sbgp.JobDeployment, steps)
	for k := range deps {
		deps[k] = sbgp.JobDeployment{
			Name: fmt.Sprintf("t2-%02d", k+1),
			Spec: &sbgp.DeploymentSpec{NumTier2: k + 1, IncludeStubs: true},
		}
	}
	return deps
}

// cycleSpecs builds one spec per topology seed from a template.
func cycleSpecs(seed int64, n, count int, tmpl sbgp.JobSpec) []*sbgp.JobSpec {
	specs := make([]*sbgp.JobSpec, count)
	for j := range specs {
		s := tmpl.Clone()
		s.Topology = sbgp.TopologySpec{N: n, Seed: topoSeed(seed, j)}
		specs[j] = s.Canonical()
	}
	return specs
}

var workloads = []workload{
	{
		name: "headline",
		why:  "default one-shot job on 4000 ASes: over 85% from-scratch core.RunAttack, one default-size shard; engine and dispatch work shows, delta/commit/HTTP do not",
		path: pathOneShot,
		warm: 1,
		specs: func(seed int64, sc scale) []*sbgp.JobSpec {
			return cycleSpecs(seed, sc.bigN, sc.cycle, sbgp.JobSpec{
				Deployments: headlineDeployments(),
				Pairs:       sbgp.PairSpec{MaxM: 6, MaxD: 6},
			})
		},
	},
	{
		name: "rollout",
		why:  "24 nested deployment steps, workers 1: dominated by core.RunDelta and the sweep chain planner; from-scratch runs are 1/25 of engine calls",
		path: pathOneShot,
		warm: 1,
		specs: func(seed int64, sc scale) []*sbgp.JobSpec {
			return cycleSpecs(seed, sc.bigN, sc.cycle, sbgp.JobSpec{
				Deployments: rolloutDeployments(24),
				Pairs:       sbgp.PairSpec{MaxM: 3, MaxD: 4},
				Workers:     1,
			})
		},
	},
	{
		name: "durable",
		why:  "400 ASes cut into 90 fsync'd shards, fresh run then resume from half: shard commit is ~40% of the fresh run and resume replays the same layer, so write- and resume-side costs show",
		path: pathDurable,
		warm: 1,
		specs: func(seed int64, sc scale) []*sbgp.JobSpec {
			return cycleSpecs(seed, sc.smallN, sc.cycle, sbgp.JobSpec{
				Deployments: headlineDeployments(),
				Pairs:       sbgp.PairSpec{MaxM: 8, MaxD: 12},
				Workers:     1,
				ShardSize:   16,
			})
		},
	},
	{
		name: "daemon-small",
		why:  "32-cell what-if jobs through the resident daemon over loopback HTTP: service fixed costs (HTTP, persists, checkpoint, warm lookup) are ~40% of a job, engine work counts least here",
		path: pathDaemon,
		specs: func(seed int64, sc scale) []*sbgp.JobSpec {
			return cycleSpecs(seed, sc.bigN, sc.daemon, sbgp.JobSpec{
				Models:      []int{3},
				Deployments: []sbgp.JobDeployment{{Named: "t1t2"}},
				Pairs:       sbgp.PairSpec{MaxM: 4, MaxD: 4},
			})
		},
	},
	{
		name: "dist-2w",
		why:  "the headline grid through the coordinator and 2 loopback workers: subtracts from headline to the cost of leases, ingest, worker rebuild and merge",
		path: pathDist,
		warm: 1,
		specs: func(seed int64, sc scale) []*sbgp.JobSpec {
			return cycleSpecs(seed, sc.bigN, sc.cycle, sbgp.JobSpec{
				Deployments: headlineDeployments(),
				Pairs:       sbgp.PairSpec{MaxM: 6, MaxD: 6},
				ShardSize:   16,
			})
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
