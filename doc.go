// Package sbgp is a from-scratch Go reproduction of "BGP Security in
// Partial Deployment: Is the Juice Worth the Squeeze?" (Lychev, Goldberg,
// Schapira; SIGCOMM 2013) — and the scenario layer over its machinery:
// one description of a simulation (Scenario, JobSpec), materialized once
// (Simulation), evaluated every way the paper needs.
//
// The library models interdomain routing with partially-deployed S*BGP
// (S-BGP / soBGP / BGPSEC) coexisting with legacy BGP, under the three
// placements of route security in the BGP decision process the paper
// studies (security 1st, 2nd, 3rd), and quantifies how much security a
// partial deployment buys over RPKI origin authentication alone.
//
// # Quick start
//
// Declare a Scenario with functional options, materialize it, run it:
//
//	sim, err := sbgp.NewScenario(
//		sbgp.WithGeneratedTopology(4000, 1),
//		sbgp.WithModel(sbgp.Sec2nd),
//		sbgp.WithDeployment("t1t2+stubs", sbgp.DeploymentSpec{
//			NumTier1: 13, NumTier2: 100, IncludeStubs: true,
//		}),
//		sbgp.WithAttack(sbgp.PathPadding{Hops: 3}),
//		sbgp.WithContext(ctx),
//	).Simulate()
//	if err != nil { ... }
//	out, err := sim.Run(d, m)                    // one routing outcome
//	res, err := sim.Sweep(attackers, dests)      // a whole grid, in parallel
//	res.WriteJSON(os.Stdout)
//
// For the paper's full |V|² methodology, run the scenario as a job: the
// grid over the scenario's own pair policy, sharded and durable — every
// completed shard is checkpointed (fsync'd) and a cancelled job resumes
// without re-evaluating it, with byte-identical output either way:
//
//	sim, err := sbgp.NewScenario(
//		sbgp.WithFullEnumeration(),
//		sbgp.WithCheckpoint("sweep.ckpt"), sbgp.WithResume(),
//	).Simulate()
//	res, err := sim.EvaluateJob(sbgp.JobEvalOptions{})
//
// (also WithShardSize; the CLIs expose the same via
// -full/-shards/-checkpoint/-resume.)
//
// # Job specs
//
// A whole sweep job — topology, models, local preference, deployments,
// attack, pair selection, incremental mode, shard/checkpoint/worker
// settings — serializes as one versioned value, JobSpec, which is also
// the Scenario's own configuration: the With* options write its fields,
// FromJobSpec adopts a whole spec, JobSpec.Canonical is the one place
// defaults are resolved, Simulation.JobSpec returns the canonical spec
// back (pinned option by option by tests), and
// Simulation.EvaluateJob runs the spec's grid through the sharded
// evaluator with optional per-shard progress sinks and a warm
// EnginePool. One spec file drives cmd/experiments -job, cmd/bgpsim
// -job, and the resident daemon cmd/sbgpd identically — with
// byte-identical output — and the CLIs' grid flags bind straight into a
// JobSpec's fields. The daemon (internal/service) adds a
// priority job queue, SSE/long-poll progress, and per-job durable
// checkpoints: killed mid-grid, it resumes on restart and reproduces
// the uninterrupted bytes.
//
// Rollout-shaped work — nested deployments S₁ ⊂ S₂ ⊂ … — evaluates
// incrementally by default: the scheduler orders sweeps chain-major
// and walks each chain with Engine.RunDelta reusing the previous
// step's fixed point (byte-identical results, severalfold faster;
// incomparable axes degrade to the from-scratch order on their own).
// WithIncremental(IncrementalOff) restores the from-scratch schedule —
// the CLIs expose the two modes as -incremental=auto|off — and
// Simulation.RunDeltaSeries runs one (destination, attacker) pair down
// an explicit deployment series with signed deltas, so the series may
// also shrink or jump between incomparable deployments.
//
// # What this package exports
//
// The package exports what it defines — Scenario and its With* options,
// Simulation, the JobSpec family — plus an alias for each internal type
// its own signatures mention (Graph, Model, Deployment, Outcome, Attack,
// Result, the Shard* types, ...) and the constants and constructors
// needed to produce their values (sbgp.go; a test holds the file to that
// rule). It is not a mirror of the internal packages: raw topology
// construction (asgraph.NewBuilder, asgraph.SetOf), engines and
// partitioners (core), deployment builders and rollout schedules
// (deploy), hand-declared grids (sweep.Grid), the paper's experiments
// (exp), Max-k-Security (maxk) and the message-level simulator (bgpsim)
// are called in the package that defines them. The layer has three
// consumers, each built on a Simulation: the experiment suite
// (internal/exp, cmd/experiments), the daemon (internal/service,
// cmd/sbgpd) and the distributed tier (internal/dist, cmd/sbgpworker).
//
// # Attack strategies
//
// The threat model is a pluggable strategy (the Attack interface):
//
//	one-hop       the paper's Section 3.1 attacker: the bogus one-hop
//	              path "m, d" via legacy BGP (default)
//	none          legitimate-origin baseline; m routes as an ordinary AS
//	pad-K         Section 5.2's smarter attacker: a padded K-hop claim
//	origin-spoof  classic prefix hijack; universal RPKI (the S = ∅
//	              baseline) filters it everywhere, so it degenerates to
//	              normal conditions
//
// ParseAttack resolves those names (the -attack flag of cmd/bgpsim and
// cmd/experiments); custom strategies implement Attack and seed
// announcements through a core.Seeder. The default strategy reproduces the
// pre-interface engine bit for bit — pinned by a golden sweep test.
//
// # Cancellation
//
// WithContext threads a context through everything a Simulation runs —
// the experiment suite (internal/exp) included, which reads it back with
// Simulation.Context. Sweeps check it cooperatively: cancelling aborts
// the grid promptly (in-flight engine runs finish, undispatched cells
// never start),
// Sweep and Plan.Evaluate return ctx.Err(), and partial aggregates are
// discarded — a cancelled sweep never returns a Result. A cancelled
// *checkpointed* sweep keeps its completed shards in the checkpoint file;
// resuming skips exactly those shards and reproduces the uninterrupted
// result byte for byte.
//
// # Internal layout
//
// README.md ("Layout") lists the internal packages, one line each.
//
// The benchmarks in this directory regenerate every evaluation artifact;
// see DESIGN.md for the experiment index E1–E27 and the design-choice
// notes. Run `make ci` for the checks CI enforces (gofmt, vet,
// staticcheck, build, test, race, example smoke runs, and `make
// bench-check`, the benchmark harness's own tests); the repo benchmark
// itself is bench/ (`go run -C bench . -smoke` for a seconds-long pass
// over every workload path, `go run -C bench .` to measure).
package sbgp
