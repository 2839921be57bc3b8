package sbgp

import (
	"context"
	"fmt"

	"sbgp/internal/asgraph"
	"sbgp/internal/deploy"
	"sbgp/internal/sweep"
)

// Scenario is a declarative simulation setup: a topology source, the
// security model(s) and local-preference variant, named deployments, a
// threat-model strategy, and execution controls. Build one with
// NewScenario and functional options, then materialize it with
// Simulate. The zero configuration is runnable: a generated 4000-AS
// topology, security 3rd, the S = ∅ baseline, and the paper's one-hop
// hijack.
//
// A scenario's configuration is one JobSpec — the wire format itself,
// written field by field by the With* options or adopted whole by
// FromJobSpec — plus the remainder below: what a spec file cannot carry.
// Setting any of graph, gen, prebuilt, resolve, or an attack the parser
// does not know makes Simulation.JobSpec report the scenario as not
// serializable; model and ctx never affect a job's result.
type Scenario struct {
	spec JobSpec

	// graph and meta are an in-memory topology (WithGraph, or the
	// daemon's warm cache via FromJobSpecOnGraph).
	graph *Graph
	meta  *TopologyMeta
	// gen holds the generator parameters beyond (n, seed), which live in
	// spec.Topology.
	gen TopologyParams
	// prebuilt holds already-materialized deployments by their position
	// on spec.Deployments (whose entry carries only the name).
	prebuilt map[int]*Deployment
	// attack is the strategy object handed to WithAttack; nil means
	// "resolve spec.Attack".
	attack  Attack
	resolve bool
	// model is the primary security model of single runs.
	model Model
	ctx   context.Context

	topologySet bool
	errs        []error
}

// Option configures a Scenario.
type Option func(*Scenario)

// NewScenario builds a scenario from options. Configuration errors are
// deferred and reported by Simulate, so option chains stay fluent.
func NewScenario(opts ...Option) *Scenario {
	sc := newScenario(JobSpec{})
	sc.setGenerated(TopologyParams{})
	for _, o := range opts {
		o(sc)
	}
	return sc
}

func newScenario(spec JobSpec) *Scenario {
	return &Scenario{spec: spec, model: Sec3rd, ctx: context.Background()}
}

func (sc *Scenario) errorf(format string, args ...any) {
	sc.errs = append(sc.errs, fmt.Errorf(format, args...))
}

// setTopology records that an option chose the topology source; a
// second choice is a configuration error.
func (sc *Scenario) setTopology() {
	if sc.topologySet {
		sc.errorf("sbgp: multiple topology sources configured")
	}
	sc.topologySet = true
}

// setGenerated makes the topology a generated one: (n, seed) go to the
// spec, everything else to the remainder. This is the one place the
// default seed is resolved: a zero Seed without SeedSet means stream 1
// (an option chain that never mentions a seed), while a spec file's
// explicit "seed": 0 is an honest stream Canonical must leave alone.
func (sc *Scenario) setGenerated(p TopologyParams) {
	if p.Seed == 0 && !p.SeedSet {
		p.Seed = 1
	}
	sc.spec.Topology.N, sc.spec.Topology.Seed = p.N, p.Seed
	p.N, p.Seed, p.SeedSet = 0, 0, false
	sc.gen = p
}

// WithGeneratedTopology generates an n-AS synthetic Internet with the
// given seed (the default topology source, with n = 4000, seed = 1).
// The seed is explicit, so 0 selects the genuine zero stream.
func WithGeneratedTopology(n int, seed int64) Option {
	return WithTopologyParams(TopologyParams{N: n, Seed: seed, SeedSet: true})
}

// WithTopologyParams generates the topology with full generator
// control.
func WithTopologyParams(p TopologyParams) Option {
	return func(sc *Scenario) {
		sc.setTopology()
		sc.setGenerated(p)
	}
}

// WithGraphFile loads the topology from a file in the asgraph text
// format.
func WithGraphFile(path string) Option {
	return func(sc *Scenario) {
		sc.setTopology()
		sc.spec.Topology.N, sc.spec.Topology.Seed = 0, 0
		sc.spec.Topology.GraphFile = path
	}
}

// WithGraph uses an existing topology. meta may be nil (no designated
// content providers or IXPs).
func WithGraph(g *Graph, meta *TopologyMeta) Option {
	return func(sc *Scenario) {
		sc.setTopology()
		sc.graph, sc.meta = g, meta
	}
}

// WithIXPAugmentation adds the IXP peering links of Appendix J to the
// topology (generated topologies and graphs passed with IXP metadata).
func WithIXPAugmentation() Option {
	return func(sc *Scenario) { sc.spec.Topology.IXP = true }
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
	return func(sc *Scenario) {
		sc.spec.Models = nil
		for _, m := range ms {
			sc.spec.Models = append(sc.spec.Models, int(m)+1)
		}
	}
}

// WithLocalPref selects the local-preference variant (default: the
// standard LP model).
func WithLocalPref(lp LocalPref) Option {
	return func(sc *Scenario) { sc.spec.LPK = lp.K }
}

// WithDeployment adds a named deployment built from a declarative spec.
// The first deployment added is the primary one used by single runs;
// every deployment joins the sweep axis after the implicit baseline.
func WithDeployment(name string, spec DeploymentSpec) Option {
	return func(sc *Scenario) {
		sc.spec.Deployments = append(sc.spec.Deployments, JobDeployment{Name: name, Spec: &spec})
	}
}

// WithPrebuiltDeployment adds a deployment that is already
// materialized.
func WithPrebuiltDeployment(name string, dep *Deployment) Option {
	return func(sc *Scenario) {
		if sc.prebuilt == nil {
			sc.prebuilt = map[int]*Deployment{}
		}
		sc.prebuilt[len(sc.spec.Deployments)] = dep
		sc.spec.Deployments = append(sc.spec.Deployments, JobDeployment{Name: name})
	}
}

// WithNamedDeployment adds one of the paper's standard scenarios by
// name: "none" (baseline only), "t1t2" (13 Tier 1s + 100 Tier 2s +
// stubs), "t1t2cp" (the same plus all content providers), "t2" (100
// Tier 2s + stubs), or "nonstubs" (every non-stub AS). Resolved at
// Simulate time against the topology's tier classification.
func WithNamedDeployment(name string) Option {
	if name == "none" {
		return func(*Scenario) {}
	}
	return WithNamedDeploymentAs(name, name)
}

// WithNamedDeploymentAs is WithNamedDeployment under an explicit
// display name: the standard scenario named (one of DeploymentNames
// except "none") joins the axis as name. Job specs use it to carry
// renamed standard deployments.
func WithNamedDeploymentAs(name, named string) Option {
	return func(sc *Scenario) {
		sc.spec.Deployments = append(sc.spec.Deployments, JobDeployment{Name: name, Named: named})
	}
}

// WithFullEnumeration sets the scenario's pair policy to the paper's
// full enumeration — every non-stub attacker × every destination — as
// used by EvaluateJob and JobPairs. Explicit pair sets passed to Sweep
// are unaffected.
func WithFullEnumeration() Option {
	return func(sc *Scenario) { sc.spec.Pairs = PairSpec{Full: true} }
}

// WithPairSampling sets the scenario's pair policy to a deterministic
// sample of at most maxM attackers × maxD destinations (0 means
// DefaultMaxM / DefaultMaxD) — the default policy, at the CLIs'
// experiment scale.
func WithPairSampling(maxM, maxD int) Option {
	return func(sc *Scenario) { sc.spec.Pairs = PairSpec{MaxM: maxM, MaxD: maxD} }
}

// WithAttack selects the threat-model strategy (default: the paper's
// one-hop "m, d" hijack). The strategy runs as given; its Name is what
// a job spec carries, so a custom Attack the parser does not know makes
// the scenario unserializable.
func WithAttack(a Attack) Option {
	return func(sc *Scenario) {
		sc.attack, sc.spec.Attack = a, ""
		if a != nil {
			sc.spec.Attack = a.Name()
		}
	}
}

// WithWorkers sets the sweep worker-pool size (default 0 =
// GOMAXPROCS). Results do not depend on it.
func WithWorkers(n int) Option {
	return func(sc *Scenario) { sc.spec.Workers = n }
}

// WithShardSize sets the cells-per-shard EvaluateJob and the Job* shard
// methods cut the job grid into (0 = the sweep layer's default). Results
// do not depend on it.
func WithShardSize(n int) Option {
	return func(sc *Scenario) { sc.spec.ShardSize = n }
}

// WithCheckpoint sets EvaluateJob's checkpoint file: every completed
// shard is durably recorded there, so a cancelled job can be resumed. The
// file is truncated on each evaluation unless resuming (WithResume or
// JobEvalOptions.Resume).
func WithCheckpoint(path string) Option {
	return func(sc *Scenario) { sc.spec.Checkpoint = path }
}

// WithResume makes EvaluateJob resume from the configured checkpoint
// file when it exists and matches the job: completed shards are merged
// from the file instead of re-evaluated, reproducing the uninterrupted
// result exactly.
func WithResume() Option {
	return func(sc *Scenario) { sc.spec.Resume = true }
}

// WithIncremental overrides the incremental (delta) scheduling mode of
// the scenario's sweeps. The default is IncrementalAuto: the deployment
// axis is partitioned into nested chains and each (model, destination,
// attacker) triple reuses the previous deployment's fixed point via
// Engine.RunDelta whenever the axis actually chains — results are
// byte-identical to the from-scratch evaluation, rollout-shaped grids
// run substantially faster, and incomparable axes degrade to the
// from-scratch order on their own. Pass IncrementalOff to force the
// from-scratch schedule. RunDeltaSeries is incremental regardless.
func WithIncremental(mode IncrementalMode) Option {
	return func(sc *Scenario) { sc.spec.Incremental = mode.String() }
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

// unserializable names the first remainder field (or spec defect) that
// keeps the scenario from being written as a job spec; nil when
// sc.spec describes the scenario completely.
func (sc *Scenario) unserializable() error {
	switch {
	case sc.graph != nil:
		return fmt.Errorf("sbgp: a scenario over an in-memory graph has no serializable job spec")
	case sc.gen != (TopologyParams{}):
		return fmt.Errorf("sbgp: generator parameters beyond (n, seed) are not representable in a job spec")
	case sc.resolve:
		return fmt.Errorf("sbgp: resolved tiebreaks are not representable in a job spec")
	}
	for i, d := range sc.spec.Deployments {
		if sc.prebuilt[i] != nil {
			return fmt.Errorf("sbgp: prebuilt deployment %q is not representable in a job spec", d.Name)
		}
	}
	// What is left is the spec's own rules — among them that the attack's
	// name is one ParseAttack knows, which a custom Attack's need not be.
	return sc.spec.Validate()
}

// Simulate materializes the scenario: it generates or loads the
// topology, validates it, classifies tiers, and builds every configured
// deployment. The simulation keeps its own copy of the configuration,
// with the spec in canonical form — the one place defaults (topology
// size, model axis, pair caps) are resolved — so Simulate may be called
// repeatedly.
func (sc *Scenario) Simulate() (*Simulation, error) {
	if len(sc.errs) > 0 {
		return nil, sc.errs[0]
	}
	if err := sc.ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkLimits(sc.spec.LPK, sc.spec.Workers); err != nil {
		return nil, err
	}
	sim := &Simulation{sc: *sc}
	sim.sc.spec = *sc.spec.Canonical()
	spec := &sim.sc.spec
	var err error
	if sim.sc.attack == nil {
		if sim.sc.attack, err = ParseAttack(spec.Attack); err != nil {
			return nil, err
		}
	}

	g, meta := sc.graph, sc.meta
	if g == nil {
		if g, meta, err = spec.Topology.load(sc.gen); err != nil {
			return nil, err
		}
	}
	if meta == nil {
		meta = &TopologyMeta{}
	}
	if spec.Topology.IXP {
		if len(meta.IXPs) == 0 {
			return nil, fmt.Errorf("sbgp: IXP augmentation requested but the topology has no IXP memberships")
		}
		g, _ = asgraph.AugmentIXP(g, meta.IXPs)
	}
	if err := asgraph.Validate(g); err != nil {
		return nil, err
	}
	sim.g, sim.meta, sim.tiers = g, meta, asgraph.Classify(g, meta.CPs, nil)

	seen := map[string]bool{"baseline": true}
	for i, d := range spec.Deployments {
		if d.Name == "" || seen[d.Name] {
			return nil, fmt.Errorf("sbgp: empty or duplicate deployment name %q", d.Name)
		}
		seen[d.Name] = true
		dep := sc.prebuilt[i]
		switch {
		case dep != nil:
		case d.Spec != nil:
			// Declarative specs can arrive from untrusted job JSON
			// (the daemon); range-check CP indices here rather than
			// panicking inside the deployment builder.
			for _, cp := range d.Spec.CPs {
				if int(cp) < 0 || int(cp) >= g.N() {
					return nil, fmt.Errorf("sbgp: deployment %q: content provider AS%d out of range [0,%d)",
						d.Name, cp, g.N())
				}
			}
			dep = deploy.Build(g, sim.tiers, *d.Spec)
		default:
			named, err := namedDeploymentSpec(d.Named, meta)
			if err != nil {
				return nil, err
			}
			dep = deploy.Build(g, sim.tiers, named)
		}
		sim.deployments = append(sim.deployments, sweep.Deployment{Name: d.Name, Dep: dep})
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
