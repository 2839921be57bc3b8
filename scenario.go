package sbgp

import (
	"context"
	"fmt"
	"os"

	"sbgp/internal/asgraph"
)

// Scenario is a declarative simulation setup: a topology source, the
// security model(s) and local-preference variant, named deployments, a
// threat-model strategy, and execution controls. Build one with
// NewScenario and functional options, then materialize it with
// Simulate. The zero configuration is runnable: a generated 4000-AS
// topology, security 3rd, the S = ∅ baseline, and the paper's one-hop
// hijack.
type Scenario struct {
	name string

	genParams *TopologyParams
	graphPath string
	graph     *Graph
	meta      *TopologyMeta
	ixp       bool

	model  Model
	models []Model
	lp     LocalPref

	deployments []scenarioDeployment

	attack      Attack
	workers     int
	ctx         context.Context
	resolve     bool
	incremental IncrementalMode

	pairs PairSpec

	shardSize  int
	checkpoint string
	resume     bool

	errs []error
}

// scenarioDeployment is a deployment axis entry before materialization:
// exactly one of spec/prebuilt/named is set.
type scenarioDeployment struct {
	name     string
	spec     *DeploymentSpec
	prebuilt *Deployment
	named    string
}

// Option configures a Scenario.
type Option func(*Scenario)

// NewScenario builds a scenario from options. Configuration errors are
// deferred and reported by Simulate, so option chains stay fluent.
func NewScenario(opts ...Option) *Scenario {
	sc := &Scenario{model: Sec3rd, ctx: context.Background()}
	for _, o := range opts {
		o(sc)
	}
	return sc
}

func (sc *Scenario) errorf(format string, args ...any) {
	sc.errs = append(sc.errs, fmt.Errorf(format, args...))
}

func (sc *Scenario) topologyConfigured() bool {
	return sc.genParams != nil || sc.graphPath != "" || sc.graph != nil
}

// WithGeneratedTopology generates an n-AS synthetic Internet with the
// given seed (the default topology source, with n = 4000, seed = 1).
// The seed is explicit, so 0 selects the genuine zero stream.
func WithGeneratedTopology(n int, seed int64) Option {
	return func(sc *Scenario) {
		if sc.topologyConfigured() {
			sc.errorf("sbgp: multiple topology sources configured")
		}
		sc.genParams = &TopologyParams{N: n, Seed: seed, SeedSet: true}
	}
}

// WithTopologyParams generates the topology with full generator
// control.
func WithTopologyParams(p TopologyParams) Option {
	return func(sc *Scenario) {
		if sc.topologyConfigured() {
			sc.errorf("sbgp: multiple topology sources configured")
		}
		sc.genParams = &p
	}
}

// WithGraphFile loads the topology from a file in the asgraph text
// format.
func WithGraphFile(path string) Option {
	return func(sc *Scenario) {
		if sc.topologyConfigured() {
			sc.errorf("sbgp: multiple topology sources configured")
		}
		sc.graphPath = path
	}
}

// WithGraph uses an existing topology. meta may be nil (no designated
// content providers or IXPs).
func WithGraph(g *Graph, meta *TopologyMeta) Option {
	return func(sc *Scenario) {
		if sc.topologyConfigured() {
			sc.errorf("sbgp: multiple topology sources configured")
		}
		sc.graph, sc.meta = g, meta
	}
}

// WithIXPAugmentation adds the IXP peering links of Appendix J to the
// topology (generated topologies and graphs passed with IXP metadata).
func WithIXPAugmentation() Option {
	return func(sc *Scenario) { sc.ixp = true }
}

// WithModel selects the security model for single runs and the default
// single-model sweep axis (default: security 3rd, the placement most
// surveyed operators use).
func WithModel(m Model) Option {
	return func(sc *Scenario) { sc.model = m }
}

// WithModels sets the sweep grid's model axis explicitly (default: all
// three placements).
func WithModels(ms ...Model) Option {
	return func(sc *Scenario) { sc.models = ms }
}

// WithLocalPref selects the local-preference variant (default: the
// standard LP model).
func WithLocalPref(lp LocalPref) Option {
	return func(sc *Scenario) { sc.lp = lp }
}

// WithDeployment adds a named deployment built from a declarative spec.
// The first deployment added is the primary one used by single runs;
// every deployment joins the sweep axis after the implicit baseline.
func WithDeployment(name string, spec DeploymentSpec) Option {
	return func(sc *Scenario) {
		sc.deployments = append(sc.deployments, scenarioDeployment{name: name, spec: &spec})
	}
}

// WithPrebuiltDeployment adds a deployment that is already
// materialized.
func WithPrebuiltDeployment(name string, dep *Deployment) Option {
	return func(sc *Scenario) {
		sc.deployments = append(sc.deployments, scenarioDeployment{name: name, prebuilt: dep})
	}
}

// WithNamedDeployment adds one of the paper's standard scenarios by
// name: "none" (baseline only), "t1t2" (13 Tier 1s + 100 Tier 2s +
// stubs), "t1t2cp" (the same plus all content providers), "t2" (100
// Tier 2s + stubs), or "nonstubs" (every non-stub AS). Resolved at
// Simulate time against the topology's tier classification.
func WithNamedDeployment(name string) Option {
	return func(sc *Scenario) {
		if name == "none" {
			return
		}
		sc.deployments = append(sc.deployments, scenarioDeployment{name: name, named: name})
	}
}

// WithNamedDeploymentAs is WithNamedDeployment under an explicit
// display name: the standard scenario named (one of DeploymentNames
// except "none") joins the axis as name. Job specs use it to carry
// renamed standard deployments.
func WithNamedDeploymentAs(name, named string) Option {
	return func(sc *Scenario) {
		if name == "" {
			name = named
		}
		sc.deployments = append(sc.deployments, scenarioDeployment{name: name, named: named})
	}
}

// WithFullEnumeration sets the scenario's pair policy to the paper's
// full enumeration — every non-stub attacker × every destination — as
// used by EvaluateJob and JobPairs. Explicit pair sets passed to Sweep
// are unaffected.
func WithFullEnumeration() Option {
	return func(sc *Scenario) { sc.pairs = PairSpec{Full: true} }
}

// WithPairSampling sets the scenario's pair policy to a deterministic
// sample of at most maxM attackers × maxD destinations (0 means
// DefaultMaxM / DefaultMaxD) — the default policy, at the CLIs'
// experiment scale.
func WithPairSampling(maxM, maxD int) Option {
	return func(sc *Scenario) { sc.pairs = PairSpec{MaxM: maxM, MaxD: maxD} }
}

// WithAttack selects the threat-model strategy (default: the paper's
// one-hop "m, d" hijack).
func WithAttack(a Attack) Option {
	return func(sc *Scenario) { sc.attack = a }
}

// WithWorkers sets the sweep worker-pool size (default 0 =
// GOMAXPROCS). Results do not depend on it.
func WithWorkers(n int) Option {
	return func(sc *Scenario) { sc.workers = n }
}

// WithShardSize sets the default cells-per-shard of SweepSharded
// (0 = DefaultShardSize). Results do not depend on it.
func WithShardSize(n int) Option {
	return func(sc *Scenario) { sc.shardSize = n }
}

// WithCheckpoint sets the default checkpoint file of SweepSharded:
// every completed shard is durably recorded there, so a cancelled sweep
// can be resumed. The file is truncated on each sweep unless resuming
// (WithResume or ShardOptions.Resume).
func WithCheckpoint(path string) Option {
	return func(sc *Scenario) { sc.checkpoint = path }
}

// WithResume makes SweepSharded resume from the configured checkpoint
// file when it exists and matches the sweep: completed shards are
// merged from the file instead of re-evaluated, reproducing the
// uninterrupted result exactly.
func WithResume() Option {
	return func(sc *Scenario) { sc.resume = true }
}

// WithIncremental overrides the incremental (delta) scheduling mode of
// the scenario's sweeps. The default is IncrementalAuto: the deployment
// axis is partitioned into nested chains and each (model, destination,
// attacker) triple reuses the previous deployment's fixed point via
// Engine.RunDelta whenever the axis actually chains — results are
// byte-identical to the legacy evaluation, rollout-shaped grids run
// substantially faster, and incomparable axes degrade to the legacy
// order on their own. Pass IncrementalOff to force the from-scratch
// schedule (IncrementalOn pins the incremental scheduler explicitly).
// RunDeltaSeries is incremental regardless.
func WithIncremental(mode IncrementalMode) Option {
	return func(sc *Scenario) { sc.incremental = mode }
}

// WithContext attaches a context to everything the simulation runs:
// cancelling it makes in-flight and future sweeps (and single runs)
// abort promptly with ctx.Err().
func WithContext(ctx context.Context) Option {
	return func(sc *Scenario) {
		if ctx == nil {
			ctx = context.Background()
		}
		sc.ctx = ctx
	}
}

// WithResolvedTiebreak makes engines resolve ties with the
// deterministic lowest-next-hop rule instead of computing three-valued
// bounds (concrete walk-throughs, message-sim cross-validation).
func WithResolvedTiebreak() Option {
	return func(sc *Scenario) { sc.resolve = true }
}

// Simulate materializes the scenario: it generates or loads the
// topology, validates it, classifies tiers, and builds every configured
// deployment. The scenario itself is not retained — Simulate may be
// called repeatedly (e.g. with different graphs via option rebuilds).
func (sc *Scenario) Simulate() (*Simulation, error) {
	if len(sc.errs) > 0 {
		return nil, sc.errs[0]
	}
	if err := sc.ctx.Err(); err != nil {
		return nil, err
	}

	g, meta := sc.graph, sc.meta
	switch {
	case sc.graphPath != "":
		f, err := os.Open(sc.graphPath)
		if err != nil {
			return nil, err
		}
		g, err = asgraph.ReadFrom(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	case g == nil:
		p := sc.genParams
		if p == nil {
			p = &TopologyParams{N: 4000, Seed: 1}
		}
		var err error
		g, meta, err = GenerateTopology(*p)
		if err != nil {
			return nil, err
		}
	}
	if meta == nil {
		meta = &TopologyMeta{}
	}
	if sc.ixp {
		if len(meta.IXPs) == 0 {
			return nil, fmt.Errorf("sbgp: IXP augmentation requested but the topology has no IXP memberships")
		}
		g, _ = asgraph.AugmentIXP(g, meta.IXPs)
	}
	if err := asgraph.Validate(g); err != nil {
		return nil, err
	}
	tiers := asgraph.Classify(g, meta.CPs, nil)

	sim := &Simulation{
		g: g, meta: meta, tiers: tiers,
		model: sc.model, models: sc.models, lp: sc.lp,
		attack: sc.attack, workers: sc.workers, ctx: sc.ctx,
		resolve:     sc.resolve,
		incremental: sc.incremental,
		pairs:       sc.pairs,
		shardSize:   sc.shardSize,
		checkpoint:  sc.checkpoint,
		resume:      sc.resume,
	}
	sim.jobSpec, sim.jobSpecErr = jobSpecOf(sc)
	seen := map[string]bool{"baseline": true}
	for _, sd := range sc.deployments {
		if sd.name == "" || seen[sd.name] {
			return nil, fmt.Errorf("sbgp: empty or duplicate deployment name %q", sd.name)
		}
		seen[sd.name] = true
		var dep *Deployment
		switch {
		case sd.prebuilt != nil:
			dep = sd.prebuilt
		case sd.spec != nil:
			// Declarative specs can arrive from untrusted job JSON
			// (the daemon); range-check CP indices here rather than
			// panicking inside the deployment builder.
			for _, cp := range sd.spec.CPs {
				if int(cp) < 0 || int(cp) >= g.N() {
					return nil, fmt.Errorf("sbgp: deployment %q: content provider AS%d out of range [0,%d)",
						sd.name, cp, g.N())
				}
			}
			dep = BuildDeployment(g, tiers, *sd.spec)
		default:
			spec, err := namedDeploymentSpec(sd.named, meta)
			if err != nil {
				return nil, err
			}
			dep = BuildDeployment(g, tiers, spec)
		}
		sim.deployments = append(sim.deployments, GridDeployment{Name: sd.name, Dep: dep})
	}
	return sim, nil
}

// namedDeploymentSpec resolves WithNamedDeployment names ("none" never
// reaches here).
func namedDeploymentSpec(name string, meta *TopologyMeta) (DeploymentSpec, error) {
	switch name {
	case "t1t2":
		return DeploymentSpec{NumTier1: 13, NumTier2: 100, IncludeStubs: true}, nil
	case "t1t2cp":
		return DeploymentSpec{NumTier1: 13, NumTier2: 100, CPs: meta.CPs, IncludeStubs: true}, nil
	case "t2":
		return DeploymentSpec{NumTier2: 100, IncludeStubs: true}, nil
	case "nonstubs":
		return DeploymentSpec{AllNonStubs: true}, nil
	}
	return DeploymentSpec{}, fmt.Errorf("sbgp: unknown deployment %q (want none, t1t2, t1t2cp, t2, or nonstubs)", name)
}

// DeploymentNames lists the names WithNamedDeployment accepts, for flag
// help.
func DeploymentNames() []string {
	return []string{"none", "t1t2", "t1t2cp", "t2", "nonstubs"}
}
