package sbgp

// This file is everything the scenario layer re-exports, and the rule
// for it is narrow: an alias for each internal type that an exported
// signature of this package mentions (so a caller can name what Scenario,
// Simulation and JobSpec hand out and take in), plus the constants and
// constructors without which a value of such a type cannot be produced.
// Nothing else is mirrored — builders, engines, partitioners, rollouts,
// grids, the experiment suite and the message simulator are called in
// the internal package that defines them. TestReexportsFollowTheExportRule
// holds the file to that.

import (
	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/policy"
	"sbgp/internal/sweep"
	"sbgp/internal/topogen"
)

// ---- Topology ----

// AS is a dense AS index in [0, Graph.N()).
type AS = asgraph.AS

// NoAS is the sentinel "no AS" value (absent attacker, next hop, ...).
const NoAS = asgraph.None

// Graph is an immutable AS-level topology.
type Graph = asgraph.Graph

// Tiers is the Table 1 tier classification of a graph.
type Tiers = asgraph.Tiers

// TopologyParams parameterizes the synthetic Internet generator.
type TopologyParams = topogen.Params

// TopologyMeta is the generator's side information (content providers,
// IXP memberships).
type TopologyMeta = topogen.Meta

// ---- Policy models ----

// Model selects where the route-security step sits in the BGP decision
// process (Section 2.2.3).
type Model = policy.Model

// The three placements of route security, and their count.
const (
	Sec1st    = policy.Sec1st
	Sec2nd    = policy.Sec2nd
	Sec3rd    = policy.Sec3rd
	NumModels = policy.NumModels
)

// Models lists the three security models in order.
var Models = policy.Models

// LocalPref selects the local-preference variant (Appendix K).
type LocalPref = policy.LocalPref

// The local-preference variants the paper evaluates.
var (
	StandardLP = policy.Standard
	LP2        = policy.LP2
)

// ---- Routing outcomes ----

// Outcome is the stable routing state of one (destination, attacker,
// deployment) run; see core.Outcome for field semantics and ownership.
type Outcome = core.Outcome

// Deployment describes which ASes adopted S*BGP (Full validates and
// signs; Simplex signs only). A nil *Deployment is the S = ∅ baseline:
// RPKI origin authentication alone.
type Deployment = core.Deployment

// DeploymentSpec declares a partial-deployment scenario (Section 5.2's
// rollouts, content providers, simplex stubs, ...).
type DeploymentSpec = deploy.Spec

// Engine computes routing outcomes with the staged Fix-Routes
// algorithms of Appendix B. Engines are cheap to reuse across runs but
// are not goroutine-safe.
type Engine = core.Engine

// Partition is the doomed/immune/protectable partition of Section 4.3,
// defined for the default one-hop attack.
type Partition = core.Partition

// ---- Attack strategies ----

// Attack is the pluggable threat-model strategy executed by engines and
// grids; see the package documentation for the built-in table.
type Attack = core.Attack

// The built-in strategies.
type (
	// OneHopHijack is the paper's Section 3.1 attacker (the default):
	// the bogus one-hop path "m, d" announced via legacy BGP.
	OneHopHijack = core.OneHopHijack
	// NoAttack seeds only the legitimate origin.
	NoAttack = core.NoAttack
	// PathPadding claims a padded Hops-hop path to the destination
	// (Section 5.2's "smarter attacker").
	PathPadding = core.PathPadding
	// OriginSpoof claims to originate the destination's prefix; RPKI
	// alone filters it everywhere.
	OriginSpoof = core.OriginSpoof
)

// ParseAttack resolves an -attack flag or job-spec value ("one-hop",
// "none", "origin-spoof", "pad-K") to a strategy.
func ParseAttack(name string) (Attack, error) { return core.ParseAttack(name) }

// ---- Grid evaluation ----

// IncrementalMode selects a grid's evaluation order: auto (the default
// — chain-major incremental scheduling whenever the deployment axis
// chains) or off (the from-scratch order). Results are byte-identical
// in both modes.
type IncrementalMode = sweep.IncrementalMode

// The incremental scheduling modes.
const (
	IncrementalAuto = sweep.IncrementalAuto
	IncrementalOff  = sweep.IncrementalOff
)

// Result is a fully evaluated grid.
type Result = sweep.Result

// Plan is a grid prepared on one graph: axes, schedule, and fingerprint
// computed once, with every evaluation hanging off it. Evaluate's Result
// is owned by the Plan and valid until its next Evaluate.
type Plan = sweep.Plan

// ShardPartial is one completed shard's exact partial aggregate, as
// streamed to JobEvalOptions.Sink and recorded in checkpoint files.
type ShardPartial = sweep.ShardPartial

// ShardLayout is the portable identity and geometry of a sharded grid
// evaluation: the grid fingerprint plus (cells, tasks, shard size,
// shard count). Two parties holding equal layouts mean the same cell
// space cut the same way, so shard indices and partials are
// interchangeable between them — the invariant the distributed
// coordinator/worker split is built on.
type ShardLayout = sweep.Layout

// ShardRange is a half-open range [Start, End) of shard indices — the
// unit of distributed leasing.
type ShardRange = sweep.ShardRange

// ShardStats reports the planner's prediction, the engines' measured work
// and the dispatch, handoff and baseline memo counters of a sharded or
// ranged evaluation.
type ShardStats = sweep.ShardStats

// ShardRangeOptions configures Simulation.EvaluateJobShards: a streaming
// partial sink, optional stats, and an EnginePool.
type ShardRangeOptions = sweep.RangeOptions

// EnginePool recycles per-worker engine state across grid evaluations —
// any of them: pooled engines follow each job's graph, size, model and
// local-preference variant — the warm engines behind the daemon and a
// dist worker. It also keeps the security-free baselines of recent jobs,
// so a job on the same graph object and pair sample runs none of them
// again. Results are byte-identical with or without pooling.
type EnginePool = sweep.EnginePool

// NewEnginePool returns an empty engine pool.
func NewEnginePool() *EnginePool { return sweep.NewEnginePool() }

// CheckpointWriter ingests shard partials idempotently (by shard
// index) into the same fsync'd checkpoint format EvaluateJob's resume
// reads — the store a coordinator keeps for the ShardLayout that
// JobShardPlan hands it.
type CheckpointWriter = sweep.CheckpointWriter

// OpenCheckpointWriter opens a CheckpointWriter for a layout. A
// non-empty path makes it durable (and resumable when resume is set);
// an empty path keeps the have-set and folded counts in memory only.
func OpenCheckpointWriter(path string, l *ShardLayout, resume bool) (*CheckpointWriter, error) {
	return sweep.OpenCheckpointWriter(path, l, resume)
}
