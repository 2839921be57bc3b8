package sbgp

// This file is the facade's re-export surface: type aliases and thin
// wrappers that make every supported capability of the internal/
// packages reachable from the root import path. Consumers outside this
// module can import only "sbgp" — Go's internal rule forbids them
// sbgp/internal/... — so everything they need, including raw topology
// construction (NewBuilder, NewSet, SetOf), is re-exported here; the
// aliases make internal types, which external code could not name
// otherwise, part of the public API without duplicating any machinery.
// In-repo programs (examples, cmds) may additionally import
// sbgp/internal/asgraph for the same primitives.

import (
	"io"

	"sbgp/internal/asgraph"
	"sbgp/internal/bgpsim"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/exp"
	"sbgp/internal/maxk"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/sweep"
	"sbgp/internal/topogen"
)

// ---- Topology (internal/asgraph, internal/topogen) ----

// AS is a dense AS index in [0, Graph.N()).
type AS = asgraph.AS

// NoAS is the sentinel "no AS" value (absent attacker, next hop, ...).
const NoAS = asgraph.None

// Graph is an immutable AS-level topology; build one with NewBuilder,
// load one with ReadGraph, or generate one with WithGeneratedTopology.
type Graph = asgraph.Graph

// Builder constructs a Graph edge by edge (AddProviderCustomer,
// AddPeer, then Build/MustBuild).
type Builder = asgraph.Builder

// NewBuilder returns a builder for an n-AS topology. Re-exported so
// consumers outside this module — which cannot import
// sbgp/internal/asgraph — can construct raw topologies.
func NewBuilder(n int) *Builder { return asgraph.NewBuilder(n) }

// Set is a dense AS set (deployment membership and the like).
type Set = asgraph.Set

// NewSet returns an empty set over an n-AS topology.
func NewSet(n int) *Set { return asgraph.NewSet(n) }

// SetOf returns a set over an n-AS topology holding the given members.
func SetOf(n int, members ...AS) *Set { return asgraph.SetOf(n, members...) }

// Tiers is the Table 1 tier classification of a graph.
type Tiers = asgraph.Tiers

// Tier is one Table 1 tier.
type Tier = asgraph.Tier

// The tiers, and their count.
const (
	TierT1      = asgraph.TierT1
	TierT2      = asgraph.TierT2
	TierT3      = asgraph.TierT3
	TierCP      = asgraph.TierCP
	TierSmallCP = asgraph.TierSmallCP
	TierSMDG    = asgraph.TierSMDG
	TierStubX   = asgraph.TierStubX
	TierStub    = asgraph.TierStub
	NumTiers    = asgraph.NumTiers
)

// ClassifyTiers classifies a graph into tiers (cps may be nil; a nil
// config uses the paper's thresholds). Simulations classify their own
// topology — this is for standalone graphs.
func ClassifyTiers(g *Graph, cps []AS) *Tiers { return asgraph.Classify(g, cps, nil) }

// TopologyParams parameterizes the synthetic Internet generator.
type TopologyParams = topogen.Params

// TopologyMeta is the generator's side information (content providers,
// IXP memberships).
type TopologyMeta = topogen.Meta

// GenerateTopology builds a synthetic Internet-like topology (the
// repository's UCLA-graph stand-in; see DESIGN.md).
func GenerateTopology(p TopologyParams) (*Graph, *TopologyMeta, error) {
	return topogen.Generate(p)
}

// ReadGraph parses the asgraph text format.
func ReadGraph(r io.Reader) (*Graph, error) { return asgraph.ReadFrom(r) }

// WriteGraph serializes a graph in the asgraph text format.
func WriteGraph(w io.Writer, g *Graph) error { return asgraph.WriteTo(w, g) }

// NonStubs returns every AS with at least one customer — the attacker
// population M' of Section 5.2.
func NonStubs(g *Graph) []AS { return asgraph.NonStubs(g) }

// ---- Policy models (internal/policy) ----

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

// ---- Routing outcomes and engines (internal/core) ----

// Label is the three-valued happiness classification of Appendix C.
type Label = core.Label

// The happiness labels.
const (
	LabelNone     = core.LabelNone
	LabelDest     = core.LabelDest
	LabelAttacker = core.LabelAttacker
	LabelAmbig    = core.LabelAmbig
)

// Outcome is the stable routing state of one (destination, attacker,
// deployment) run; see core.Outcome for field semantics and ownership.
type Outcome = core.Outcome

// Deployment describes which ASes adopted S*BGP (Full validates and
// signs; Simplex signs only). A nil *Deployment is the S = ∅ baseline:
// RPKI origin authentication alone.
type Deployment = core.Deployment

// Engine computes routing outcomes with the staged Fix-Routes
// algorithms of Appendix B. Engines are cheap to reuse across runs but
// are not goroutine-safe.
type Engine = core.Engine

// EngineOption configures an Engine.
type EngineOption = core.Option

// NewEngine returns an engine for the graph and security model under
// the standard local-preference policy.
func NewEngine(g *Graph, m Model, opts ...EngineOption) *Engine {
	return core.NewEngine(g, m, opts...)
}

// NewEngineLP is NewEngine with an explicit local-preference variant.
func NewEngineLP(g *Graph, m Model, lp LocalPref, opts ...EngineOption) *Engine {
	return core.NewEngineLP(g, m, lp, opts...)
}

// EngineResolvedTiebreak makes an engine resolve ties with the
// deterministic lowest-next-hop rule instead of three-valued bounds.
func EngineResolvedTiebreak() EngineOption { return core.WithResolvedTiebreak() }

// Downgraded reports whether source v lost a secure route between the
// normal-conditions outcome and the attack outcome (Section 3.2).
func Downgraded(normal, attack *Outcome, v AS) bool { return core.Downgraded(normal, attack, v) }

// CountDowngraded counts downgraded sources between the two outcomes.
func CountDowngraded(normal, attack *Outcome) int { return core.CountDowngraded(normal, attack) }

// CountSecure counts sources with fully secure routes in o.
func CountSecure(o *Outcome) int { return core.CountSecure(o) }

// Partition is the doomed/immune/protectable partition of Section 4.3,
// defined for the default one-hop attack.
type Partition = core.Partition

// Partitioner computes Partitions; like Engine it is reusable but not
// goroutine-safe.
type Partitioner = core.Partitioner

// NewPartitioner returns a partitioner for the graph and
// local-preference variant.
func NewPartitioner(g *Graph, lp LocalPref) *Partitioner { return core.NewPartitioner(g, lp) }

// Category is a partition category.
type Category = core.Category

// The partition categories, and their count.
const (
	CatImmune      = core.CatImmune
	CatDoomed      = core.CatDoomed
	CatProtectable = core.CatProtectable
	NumCategories  = core.NumCategories
)

// ---- Attack strategies (internal/core) ----

// Attack is the pluggable threat-model strategy executed by engines and
// grids; see the package documentation for the built-in table.
type Attack = core.Attack

// Seeder is the surface an Attack uses to originate routes.
type Seeder = core.Seeder

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

// MaxPadHops bounds the claimed path length of a bogus announcement.
// The clamp lives in internal/core and is shared by every seeding path
// (built-in strategies, ParseAttack, and custom Attacks alike), so no
// origination can overflow the engine's int32 length arithmetic.
const MaxPadHops = core.MaxPadHops

// ParseAttack resolves an -attack flag value ("one-hop", "none",
// "origin-spoof", "pad-K") to a strategy.
func ParseAttack(name string) (Attack, error) { return core.ParseAttack(name) }

// DeploymentDelta returns the signed capability delta from prev to
// next: the ASes that gained S*BGP capability and the ASes that lost
// it — exactly the lists Engine.RunDelta takes. next is nested over
// prev (a growing rollout step) exactly when removed is empty.
func DeploymentDelta(prev, next *Deployment) (added, removed []AS) {
	return core.DeploymentDelta(prev, next)
}

// Attacks lists the built-in strategies for help text and tables.
func Attacks() []Attack { return core.Attacks() }

// ---- Deployment scenarios (internal/deploy) ----

// DeploymentSpec declares a partial-deployment scenario (Section 5.2's
// rollouts, content providers, simplex stubs, ...).
type DeploymentSpec = deploy.Spec

// RolloutStep is one point of a deployment rollout.
type RolloutStep = deploy.Step

// BuildDeployment materializes a spec on a classified graph.
func BuildDeployment(g *Graph, tiers *Tiers, spec DeploymentSpec) *Deployment {
	return deploy.Build(g, tiers, spec)
}

// Tier12Rollout, Tier12CPRollout, and Tier2Rollout return the rollout
// schedules of Sections 5.2.1, 5.2.2, and 5.2.4.
func Tier12Rollout(g *Graph, tiers *Tiers, simplexStubs bool) []RolloutStep {
	return deploy.Tier12Rollout(g, tiers, simplexStubs)
}

// Tier12CPRollout is the Tier 1+2 rollout with all content providers
// secured at every step.
func Tier12CPRollout(g *Graph, tiers *Tiers, cps []AS, simplexStubs bool) []RolloutStep {
	return deploy.Tier12CPRollout(g, tiers, cps, simplexStubs)
}

// Tier2Rollout is the Tier 2-only rollout.
func Tier2Rollout(g *Graph, tiers *Tiers, simplexStubs bool) []RolloutStep {
	return deploy.Tier2Rollout(g, tiers, simplexStubs)
}

// ---- Parallel evaluation and grids (internal/runner, internal/sweep) ----

// Metric is the security metric H_{M,D}(S) with its tiebreak bounds.
type Metric = runner.Metric

// PartitionFractions aggregates partition fractions per model.
type PartitionFractions = runner.PartitionFractions

// SamplePairs deterministically samples attacker and destination sets.
func SamplePairs(M, D []AS, maxM, maxD int) (ms, ds []AS) {
	return runner.SamplePairs(M, D, maxM, maxD)
}

// Grid declares a (model × deployment × attacker × destination)
// evaluation grid with a pluggable Attack axis; results are
// byte-identical at any worker count.
type Grid = sweep.Grid

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

// ParseIncrementalMode resolves an -incremental flag or job-spec value
// ("auto" or "off"; "on" and the boolean spellings older spec files may
// hold are accepted and mean auto/off) to a mode.
func ParseIncrementalMode(s string) (IncrementalMode, error) {
	return sweep.ParseIncrementalMode(s)
}

// GridDeployment is one named point on a grid's deployment axis.
type GridDeployment = sweep.Deployment

// Result is a fully evaluated grid.
type Result = sweep.Result

// Cell is one (deployment, model) aggregate of a Result.
type Cell = sweep.Cell

// Plan is a Grid prepared on one graph (Grid.Prepare): axes, schedule,
// and fingerprint computed once, with every evaluation — the flat
// Evaluate, reusable across calls on warm engines; the sharded
// EvaluateSharded and EvaluateShardRange; Merge and Result — hanging off
// it. Evaluate's Result is owned by the Plan and valid until its next
// Evaluate.
type Plan = sweep.Plan

// ShardOptions configures sharded grid evaluation (Grid.EvaluateSharded,
// Simulation.SweepSharded): cells per shard, an optional fsync'd
// JSON-lines checkpoint file, resume from it, and a streaming sink for
// completed shards. The result is byte-identical to the flat evaluation
// at every worker count and shard size.
type ShardOptions = sweep.ShardOptions

// ShardPartial is one completed shard's exact partial aggregate, as
// streamed to ShardOptions.Sink and recorded in checkpoint files.
type ShardPartial = sweep.ShardPartial

// DefaultShardSize is the cells-per-shard default when
// ShardOptions.ShardSize is zero.
const DefaultShardSize = sweep.DefaultShardSize

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

// ShardStats reports dispatch-unit and cross-shard handoff counters
// for a sharded or ranged evaluation.
type ShardStats = sweep.ShardStats

// ShardRangeOptions configures range evaluation
// (Simulation.EvaluateJobShards, Plan.EvaluateShardRange): a streaming
// partial sink, optional stats, and an EnginePool.
type ShardRangeOptions = sweep.RangeOptions

// CheckpointWriter ingests shard partials idempotently (by shard
// index) into the same fsync'd checkpoint format the sharded
// evaluator's resume reads — the coordinator's reconcile sink.
type CheckpointWriter = sweep.CheckpointWriter

// OpenCheckpointWriter opens a CheckpointWriter for a layout. A
// non-empty path makes it durable (and resumable when resume is set);
// an empty path keeps the have-set and folded counts in memory only.
func OpenCheckpointWriter(path string, l *ShardLayout, resume bool) (*CheckpointWriter, error) {
	return sweep.OpenCheckpointWriter(path, l, resume)
}

// EnginePool recycles per-worker engine state across grid evaluations
// sharing one (topology, local-preference) pair — the warm-engine cache
// behind the resident daemon. Results are byte-identical with or
// without pooling.
type EnginePool = sweep.EnginePool

// NewEnginePool returns an empty engine pool.
func NewEnginePool() *EnginePool { return sweep.NewEnginePool() }

// AllASes returns the full population 0..n-1, the destination set of a
// full |V|² enumeration.
func AllASes(n int) []AS { return runner.AllASes(n) }

// ---- Experiments (internal/exp) ----

// Workload bundles a generated topology with deterministic pair
// samples; its methods reproduce the paper's tables and figures.
type Workload = exp.Workload

// ExperimentConfig sizes a Workload.
type ExperimentConfig = exp.Config

// RolloutPoint is one step of a rollout experiment.
type RolloutPoint = exp.RolloutPoint

// EarlyAdopterResult is one row of the Section 5.3.1 comparison.
type EarlyAdopterResult = exp.EarlyAdopterResult

// NewWorkload generates the experiment workload.
func NewWorkload(cfg ExperimentConfig) *Workload { return exp.NewWorkload(cfg) }

// NewIXPWorkload is NewWorkload on the IXP-augmented graph (Appendix J).
func NewIXPWorkload(cfg ExperimentConfig) *Workload { return exp.NewIXPWorkload(cfg) }

// MeanDelta averages a per-destination delta sequence.
func MeanDelta(xs []float64) float64 { return exp.MeanDelta(xs) }

// ---- Max-k-Security (internal/maxk) ----

// MaxKGadget is the Appendix I NP-hardness gadget.
type MaxKGadget = maxk.Gadget

// BuildMaxKGadget builds the gadget for a set-cover instance.
func BuildMaxKGadget(nElements int, sets [][]int, gamma int) *MaxKGadget {
	return maxk.BuildGadget(nElements, sets, gamma)
}

// ---- Message-level simulator (internal/bgpsim) ----

// MessageNet is the message-level BGP/S*BGP simulator used for wedgies,
// convergence checks, and cross-validation of the engine.
type MessageNet = bgpsim.Net

// MessageRoute is an AS-path as received from a neighbor.
type MessageRoute = bgpsim.Route

// Placement is a per-AS security placement (unlike Model, ASes may
// disagree — the ingredient of BGP wedgies).
type Placement = bgpsim.Placement

// The per-AS placements.
const (
	PlacementNotDeployed = bgpsim.NotDeployed
	PlacementFirst       = bgpsim.First
	PlacementSecond      = bgpsim.Second
	PlacementThird       = bgpsim.Third
)

// NewMessageNet builds a message-level simulator over per-AS
// placements.
func NewMessageNet(g *Graph, placement []Placement) *MessageNet {
	return bgpsim.New(g, placement)
}

// UniformPlacements converts a (model, deployment) pair to per-AS
// placements.
func UniformPlacements(g *Graph, m Model, dep *Set) []Placement {
	return bgpsim.UniformPlacements(g, m, dep)
}
