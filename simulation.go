package sbgp

import (
	"context"
	"fmt"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/runner"
	"sbgp/internal/sweep"
)

// Simulation is a materialized Scenario: a validated topology with its
// tier classification, built deployments, and lazily constructed
// engines. A Simulation is cheap to query repeatedly but, like the
// engines it wraps, must not be shared between goroutines; Sweep
// parallelism is managed internally and safe.
type Simulation struct {
	// sc is the scenario as simulated: its spec in canonical form
	// (defaults resolved) and its attack resolved to a strategy object.
	sc Scenario

	g     *Graph
	meta  *TopologyMeta
	tiers *Tiers

	// jobPlan is the job grid — the scenario's grid over its own pair
	// policy — prepared on first use and shared by every Job* method, so
	// a worker evaluating many leases, or a coordinator planning,
	// ingesting and merging, expands and fingerprints the grid once.
	jobPlan    *Plan
	jobPlanErr error

	// deployments is the sweep axis (primary first); the implicit
	// baseline is prepended at sweep time.
	deployments []sweep.Deployment

	engines     [NumModels]*Engine
	partitioner *core.Partitioner
}

// Graph returns the simulation's topology.
func (s *Simulation) Graph() *Graph { return s.g }

// Meta returns the topology's generator side information (content
// providers, IXPs); empty for loaded or user-supplied graphs without
// metadata.
func (s *Simulation) Meta() *TopologyMeta { return s.meta }

// Tiers returns the Table 1 tier classification.
func (s *Simulation) Tiers() *Tiers { return s.tiers }

// Model returns the primary security model.
func (s *Simulation) Model() Model { return s.sc.model }

// Attack returns the threat-model strategy (the one-hop hijack unless
// configured otherwise).
func (s *Simulation) Attack() Attack { return s.sc.attack }

// Context returns the scenario's context (WithContext), for consumers
// that run evaluations of their own on the topology: the experiment suite.
func (s *Simulation) Context() context.Context { return s.sc.ctx }

// lp returns the scenario's local-preference variant.
func (s *Simulation) lp() LocalPref { return LocalPref{K: s.sc.spec.LPK} }

// Deployment returns the primary deployment, or nil for the S = ∅
// baseline.
func (s *Simulation) Deployment() *Deployment {
	if len(s.deployments) == 0 {
		return nil
	}
	return s.deployments[0].Dep
}

// Engine returns the simulation's engine for a security model,
// constructing it on first use with the scenario's local-preference and
// tiebreak settings. The engine is owned by the simulation; use it for
// custom run sequences the convenience methods do not cover.
func (s *Simulation) Engine(m Model) *Engine {
	if int(m) < 0 || int(m) >= NumModels {
		panic(fmt.Sprintf("sbgp: unknown model %v", m))
	}
	if s.engines[m] == nil {
		var opts []core.Option
		if s.sc.resolve {
			opts = append(opts, core.WithResolvedTiebreak())
		}
		s.engines[m] = core.NewEngineLP(s.g, m, s.lp(), opts...)
	}
	return s.engines[m]
}

// checkRun validates a (destination, attacker) pair against the graph
// and the scenario context.
func (s *Simulation) checkRun(d, m AS) error {
	if err := s.sc.ctx.Err(); err != nil {
		return err
	}
	if int(d) < 0 || int(d) >= s.g.N() {
		return fmt.Errorf("sbgp: destination AS%d out of range [0,%d)", d, s.g.N())
	}
	if m != NoAS && (int(m) < 0 || int(m) >= s.g.N()) {
		return fmt.Errorf("sbgp: attacker AS%d out of range [0,%d)", m, s.g.N())
	}
	if m == d {
		return fmt.Errorf("sbgp: attacker equals destination (AS%d)", d)
	}
	return nil
}

// Run computes the routing outcome for one (destination, attacker)
// pair under the primary model, primary deployment, and configured
// attack. Pass m = NoAS for normal conditions. The outcome is owned by
// the underlying engine and valid until its next run; Clone to retain.
func (s *Simulation) Run(d, m AS) (*Outcome, error) {
	return s.RunWith(s.sc.model, d, m, s.Deployment())
}

// RunNormal is Run under normal conditions (no attacker).
func (s *Simulation) RunNormal(d AS) (*Outcome, error) {
	return s.Run(d, NoAS)
}

// RunWith is Run with an explicit model and deployment (nil dep: the
// S = ∅ baseline) — the general form behind the convenience wrappers.
func (s *Simulation) RunWith(model Model, d, m AS, dep *Deployment) (*Outcome, error) {
	if err := s.checkRun(d, m); err != nil {
		return nil, err
	}
	return s.Engine(model).RunAttack(d, m, dep, s.sc.attack), nil
}

// Partition computes the doomed/immune/protectable partition for a
// pair. Partitions are defined for the paper's one-hop attack
// regardless of the scenario's attack strategy.
func (s *Simulation) Partition(d, m AS) (*Partition, error) {
	if err := s.checkRun(d, m); err != nil {
		return nil, err
	}
	if m == NoAS {
		return nil, fmt.Errorf("sbgp: partitions need an attacker")
	}
	if s.partitioner == nil {
		s.partitioner = core.NewPartitioner(s.g, s.lp())
	}
	return s.partitioner.Run(d, m), nil
}

// Sweep evaluates the full scenario grid — every configured model (all
// three by default) × the implicit baseline plus every configured
// deployment × the given attacker and destination sets — under the
// scenario's attack strategy, through the same sharded loop as
// EvaluateJob into a memory-only store. Results are byte-identical at
// any worker count, and the Result is the caller's; cancelling the
// scenario context aborts the sweep promptly with ctx.Err().
func (s *Simulation) Sweep(attackers, destinations []AS) (*Result, error) {
	pl, err := s.grid(attackers, destinations).Prepare(s.g)
	if err != nil {
		return nil, err
	}
	return pl.Evaluate(s.sc.ctx)
}

// grid assembles the scenario's sweep grid over the given pair sets.
func (s *Simulation) grid(attackers, destinations []AS) *sweep.Grid {
	spec := &s.sc.spec
	models := make([]Model, len(spec.Models))
	for i, n := range spec.Models {
		models[i] = Model(n - 1)
	}
	// The mode string was written by WithIncremental or validated by
	// FromJobSpec, so it parses.
	mode, _ := ParseIncrementalMode(spec.Incremental)
	return &sweep.Grid{
		Models:       models,
		LP:           s.lp(),
		Deployments:  append([]sweep.Deployment{{Name: "baseline"}}, s.deployments...),
		Attackers:    attackers,
		Destinations: destinations,
		Attack:       s.sc.attack,
		Incremental:  mode,
		Workers:      spec.Workers,
	}
}

// RunDeltaSeries computes the outcome of one (destination, attacker)
// pair under each deployment of a series, in order, reusing each step's
// fixed point for the next via Engine.RunDelta. Deltas are signed, so
// every step is incremental — growing steps (the nested S₁ ⊂ S₂ ⊂ …
// shape of the paper's rollout experiments), shrinking ones (a rollback
// walking the same slope down), and remove-then-add steps between
// incomparable deployments alike; the engine itself falls back to a
// from-scratch run only when a step's dirty region grows past its
// delta threshold. Pass m = NoAS for normal conditions, and nil entries
// for the S = ∅ baseline. Each returned outcome is an independent
// clone, indexed like deps; results are identical to running every
// deployment from scratch. Cancelling the scenario context aborts the
// series between steps.
func (s *Simulation) RunDeltaSeries(d, m AS, deps []*Deployment) ([]*Outcome, error) {
	if err := s.checkRun(d, m); err != nil {
		return nil, err
	}
	e := s.Engine(s.sc.model)
	out := make([]*Outcome, len(deps))
	var prev *Outcome
	for i, dep := range deps {
		if err := s.sc.ctx.Err(); err != nil {
			return nil, err
		}
		var o *Outcome
		if prev != nil {
			added, removed := core.DeploymentDelta(deps[i-1], dep)
			o = e.RunDelta(prev, added, removed, dep, s.sc.attack)
		} else {
			o = e.RunAttack(d, m, dep, s.sc.attack)
		}
		out[i] = o.Clone()
		prev = o
	}
	return out, nil
}

// JobSpec returns the canonical serializable job spec describing this
// simulation's scenario — a copy of the spec the simulation itself is
// configured by, and therefore exactly what FromJobSpec would rebuild it
// from. It errors, naming the offending capability, for scenarios using
// what the wire format cannot carry: an in-memory graph, prebuilt
// deployments, generator parameters beyond (n, seed), resolved
// tiebreaks, or a custom Attack unknown to ParseAttack.
func (s *Simulation) JobSpec() (*JobSpec, error) {
	if err := s.sc.unserializable(); err != nil {
		return nil, err
	}
	return s.sc.spec.Clone(), nil
}

// JobPairs materializes the scenario's pair policy (WithFullEnumeration
// / WithPairSampling, or a job spec's pairs): attackers are the
// non-stub population M′, destinations the full population, sampled
// down to the policy's caps unless enumerating fully. Deterministic for
// a given topology.
func (s *Simulation) JobPairs() (attackers, destinations []AS) {
	ms := asgraph.NonStubs(s.g)
	ds := runner.AllASes(s.g.N())
	pairs := s.sc.spec.Pairs
	if pairs.Full {
		return ms, ds
	}
	return runner.SamplePairs(ms, ds, pairs.MaxM, pairs.MaxD)
}

// JobPlan returns the scenario's job grid — the configured grid over
// JobPairs — prepared on the simulation's topology. The plan is built
// once; JobGeometry, EvaluateJob, JobShardPlan, EvaluateJobShards and
// MergeJobPartials are all served from it.
func (s *Simulation) JobPlan() (*Plan, error) {
	if s.jobPlan == nil && s.jobPlanErr == nil {
		s.jobPlan, s.jobPlanErr = s.grid(s.JobPairs()).Prepare(s.g)
	}
	return s.jobPlan, s.jobPlanErr
}

// JobGeometry reports the size of the scenario's job: its grid cell
// count and the number of shards the sharded evaluator will cut it
// into under the scenario's shard size. The daemon's progress
// accounting (shards_done / shards_total) divides by the shard count.
func (s *Simulation) JobGeometry() (cells, shards int, err error) {
	pl, err := s.JobPlan()
	if err != nil {
		return 0, 0, err
	}
	l := pl.Layout(s.sc.spec.ShardSize)
	return l.Cells, l.Shards, nil
}

// JobEvalOptions tunes EvaluateJob without changing the job's result:
// an overriding checkpoint location (the daemon stores per-job
// checkpoints under its own data directory, ignoring the spec's), a
// resume override, a streaming sink for completed shards, and a warm
// EnginePool to recycle per-worker engines across evaluations.
type JobEvalOptions struct {
	// Checkpoint overrides the scenario's checkpoint path ("" keeps it).
	Checkpoint string
	// Resume enables resume in addition to the scenario's setting.
	Resume bool
	// Sink observes every shard of the job exactly once — resumed shards
	// replayed first, fresh ones as they finish, each after its checkpoint
	// record is durable; a non-nil error aborts the evaluation.
	Sink func(*ShardPartial) error
	// Stats, when non-nil, receives the evaluation's planner and
	// dispatch counters (see ShardStats): how the deployment axis was
	// scheduled — chain heads, delta edges, predicted volume — and how
	// the shards and cross-shard handoffs played out.
	Stats *ShardStats
	// Pool recycles per-worker engine state across evaluations; any
	// pool serves any simulation (see EnginePool).
	Pool *EnginePool
}

// EvaluateJob runs the scenario as a complete job: the job plan through
// the sharded evaluator. This is the one evaluation path shared by the
// daemon and both CLIs' -job modes, so a spec yields byte-identical
// result bytes no matter who runs it — and, via the checkpoint, no
// matter how often it is interrupted and resumed.
func (s *Simulation) EvaluateJob(opts JobEvalOptions) (*Result, error) {
	pl, err := s.JobPlan()
	if err != nil {
		return nil, err
	}
	cp := s.sc.spec.Checkpoint
	if opts.Checkpoint != "" {
		cp = opts.Checkpoint
	}
	return pl.EvaluateSharded(s.sc.ctx, sweep.ShardOptions{
		ShardSize:  s.sc.spec.ShardSize,
		Checkpoint: cp,
		Resume:     opts.Resume || s.sc.spec.Resume,
		Sink:       opts.Sink,
	}, sweep.RunOptions{Pool: opts.Pool, Stats: opts.Stats})
}

// JobShardPlan returns the scenario job's shard layout — the portable
// identity a coordinator publishes and every worker verifies — plus the
// chain-aligned lease units covering its shard space (leases cut on
// unit boundaries keep RunDelta chains worker-local). The layout's
// fingerprint is the same one EvaluateJob's checkpoint carries, so a
// coordinator's checkpoint and a single-box checkpoint are the same
// file format with the same identity.
func (s *Simulation) JobShardPlan() (*ShardLayout, []ShardRange, error) {
	pl, err := s.JobPlan()
	if err != nil {
		return nil, nil, err
	}
	l := pl.Layout(s.sc.spec.ShardSize)
	return l, pl.Units(l), nil
}

// EvaluateJobShards evaluates one shard range of the scenario job
// against a layout, streaming each completed shard's exact partial to
// opts.Sink — the worker half of a distributed evaluation. A layout
// minted by a different job is refused with a fingerprint mismatch.
func (s *Simulation) EvaluateJobShards(l *ShardLayout, r ShardRange, opts ShardRangeOptions) error {
	pl, err := s.JobPlan()
	if err != nil {
		return err
	}
	return pl.EvaluateShardRange(s.sc.ctx, l, r, opts)
}

// MergeJobPartials folds a complete, deduplicated set of shard partials
// (one per shard of the layout, any order) into the job's Result —
// byte-identical to EvaluateJob no matter which workers produced which
// shards.
func (s *Simulation) MergeJobPartials(l *ShardLayout, partials []*ShardPartial) (*Result, error) {
	pl, err := s.JobPlan()
	if err != nil {
		return nil, err
	}
	return pl.Merge(l, partials)
}
