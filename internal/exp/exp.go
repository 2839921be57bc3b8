// Package exp defines one runnable experiment per table and figure of
// the paper's evaluation. Each experiment returns plain data; a Report
// runs each once for cmd/experiments to print, Claims checks the paper's
// claims against it, and the repository-level benchmarks wrap these
// functions so `go test -bench` regenerates every artifact.
//
// The package is a consumer of the scenario layer, like the daemon and
// the distributed tier: a Workload is built from a *sbgp.Simulation —
// its topology, threat model, pair policy and execution controls — and
// adds only what the experiments need beyond a job. The scenario
// substitutes a synthetic topology for the UCLA graph and, by default, a
// deterministic sample of attacker-destination pairs for the paper's
// full |V|² enumeration (see DESIGN.md); the *shape* of every result —
// who wins, by roughly what factor, where the crossovers fall — is the
// reproduction target, not the absolute numbers. A scenario declared
// WithFullEnumeration restores the paper's actual methodology — every
// non-stub attacker against every destination.
package exp

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"sbgp"
	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/policy"
	"sbgp/internal/rootcause"
	"sbgp/internal/runner"
	"sbgp/internal/sweep"
)

// Workload is a simulated scenario seen by the experiments: its
// topology and pair sets, plus the tier-stratified sample only the
// by-tier figures need.
type Workload struct {
	G     *asgraph.Graph
	Tiers *asgraph.Tiers
	Meta  *sbgp.TopologyMeta

	// M and D are the scenario's attacker and destination sets
	// (Simulation.JobPairs).
	M, D []asgraph.AS

	// Tiered is a stratified sample with a fixed quota per tier, used as
	// the destination set of Figures 4–5 and the attacker set of Figure 6
	// so every tier bucket is populated.
	Tiered []asgraph.AS

	// MaxPerDest caps per-destination series (Figures 9, 10, 12).
	MaxPerDest int

	// Attack is the scenario's threat model, under which the metric
	// experiments run. The partition, root-cause, and phenomena
	// experiments are defined for the one-hop attack and ignore it.
	Attack core.Attack

	// Incremental is the scenario's scheduling mode for the metric grids
	// (identical results in both; see sweep.IncrementalMode).
	Incremental sweep.IncrementalMode

	Workers int

	// Tier12 is the Tier 1+2 rollout (Figure 7), built once: E7 walks
	// it, and E8, E16 and E17 evaluate its last step.
	Tier12 []deploy.Step

	// ctx is the simulation's context; every evaluation runs under it,
	// and the first one to fail leaves its error in err (see Err).
	ctx context.Context
	err atomic.Pointer[error]
}

// NewWorkload builds the experiment workload of a simulated scenario.
// The topology, tiers, metadata and threat model are the simulation's; M
// and D are its job pairs; the scheduling mode, the worker count and the
// pair policy that sizes the tier strata are read from its job spec, so
// the scenario must be one a spec can describe (Simulation.JobSpec).
// maxPerDest caps the per-destination series (0 means 200).
func NewWorkload(sim *sbgp.Simulation, maxPerDest int) (*Workload, error) {
	spec, err := sim.JobSpec()
	if err != nil {
		return nil, err
	}
	// Canonical specs carry a mode string that parses.
	mode, _ := sweep.ParseIncrementalMode(spec.Incremental)
	if maxPerDest == 0 {
		maxPerDest = 200
	}
	g, tiers := sim.Graph(), sim.Tiers()
	M, D := sim.JobPairs()
	// Under full enumeration the tier strata are kept whole, like M and D.
	quota := 0
	if !spec.Pairs.Full {
		quota = spec.Pairs.MaxD/2 + 1
	}
	var tiered []asgraph.AS
	for t := 0; t < asgraph.NumTiers; t++ {
		members, _ := runner.SamplePairs(tiers.Members[asgraph.Tier(t)], nil, quota, 0)
		tiered = append(tiered, members...)
	}
	return &Workload{
		G:           g,
		Tiers:       tiers,
		Meta:        sim.Meta(),
		M:           M,
		D:           D,
		Tiered:      tiered,
		MaxPerDest:  maxPerDest,
		Attack:      sim.Attack(),
		Incremental: mode,
		Workers:     spec.Workers,
		Tier12:      deploy.Tier12Rollout(g, tiers, false),
		ctx:         sim.Context(),
	}, nil
}

// Err returns the first error an evaluation of the workload hit, if any
// — a cancelled context, typically. Like bufio.Scanner, the experiment
// methods keep their plain signatures: after a failure they return zero
// results without evaluating, and the caller checks Err once at the end.
func (w *Workload) Err() error {
	if err := w.err.Load(); err != nil {
		return *err
	}
	return nil
}

// Baseline computes E1: the lower bound on H_{V,V}(∅) — origin
// authentication alone (Section 4.2; the paper reports ≥60%, 62% on the
// IXP-augmented graph).
func (w *Workload) Baseline(model policy.Model, lp policy.LocalPref) runner.Metric {
	grid := w.grid(lp, nil, w.D)
	grid.Models = []policy.Model{model}
	res := w.evaluate(grid)
	if res == nil {
		return runner.Metric{}
	}
	return res.Cells[0].Metric
}

// run performs one evaluation under the workload's context — or, once
// any evaluation has failed (see Err), returns the zero value instead.
func run[T any](w *Workload, eval func(context.Context) (T, error)) T {
	var zero T
	if w.Err() != nil {
		return zero
	}
	res, err := eval(w.ctx)
	if err != nil {
		first := err // a copy, so only the failure path escapes to the heap
		w.err.CompareAndSwap(nil, &first)
		return zero
	}
	return res
}

// grid declares a metric grid of the workload's scenario: every model ×
// the deployments (nil: the baseline alone) × its attackers × D.
func (w *Workload) grid(lp policy.LocalPref, deployments []sweep.Deployment, D []asgraph.AS) *sweep.Grid {
	return &sweep.Grid{
		LP:           lp,
		Deployments:  deployments,
		Attackers:    w.M,
		Destinations: D,
		Attack:       w.Attack,
		Incremental:  w.Incremental,
		Workers:      w.Workers,
	}
}

// evaluate evaluates a grid of the workload; nil after a failure.
func (w *Workload) evaluate(grid *sweep.Grid) *sweep.Result {
	return run(w, func(ctx context.Context) (*sweep.Result, error) {
		pl, err := grid.Prepare(w.G)
		if err != nil {
			return nil, err
		}
		return pl.Evaluate(ctx)
	})
}

// walk runs one pair walk, pairs seen as (outer, inner); nil after a failure.
func (w *Workload) walk(outer, inner []asgraph.AS, width int, newKernel func() runner.PairKernel) []int64 {
	return run(w, func(ctx context.Context) ([]int64, error) {
		return runner.WalkPairs(ctx, outer, inner, w.Workers, width, newKernel)
	})
}

// Partitions computes E2 (Figure 3) and E6 (the "figure omitted"
// analysis of Section 4.7) from one walk over all sampled pairs:
// doomed/protectable/immune fractions over all sources and per source tier.
func (w *Workload) Partitions(lp policy.LocalPref) (all runner.PartitionFractions, bySourceTier []runner.PartitionFractions) {
	rows := w.walk(w.D, w.M, runner.PartitionWidth, runner.PartitionKernel(w.G, w.Tiers, lp))
	return runner.FoldPartitions(runner.SumRows(rows, runner.PartitionWidth))
}

// PartitionsByDestTier computes E3/E4 (Figures 4 and 5): partitions
// grouped by destination tier, over a tier-stratified destination
// sample.
func (w *Workload) PartitionsByDestTier(lp policy.LocalPref) []runner.PartitionFractions {
	rows := w.walk(w.Tiered, w.M, runner.PartitionWidth, runner.PartitionKernel(w.G, w.Tiers, lp))
	return w.partitionsByTier(w.Tiered, rows)
}

// PartitionsByAttackerTier computes E5 (Figure 6): partitions grouped
// by attacker tier, over a tier-stratified attacker sample (the paper
// buckets all |V|² pairs; stubs attack too in this figure): the same
// walk attacker-major, so a row is an attacker's.
func (w *Workload) PartitionsByAttackerTier(lp policy.LocalPref) []runner.PartitionFractions {
	newKernel := runner.PartitionKernel(w.G, w.Tiers, lp)
	rows := w.walk(w.Tiered, w.D, runner.PartitionWidth, func() runner.PairKernel {
		kernel := newKernel()
		return func(row []int64, m, d asgraph.AS) { kernel(row, d, m) }
	})
	return w.partitionsByTier(w.Tiered, rows)
}

// partitionsByTier groups a partition walk's rows by the tier of their
// outer element and folds each group over all sources.
func (w *Workload) partitionsByTier(outer []asgraph.AS, rows []int64) []runner.PartitionFractions {
	const width = runner.PartitionWidth
	groups := make([]int64, asgraph.NumTiers*width)
	for i, c := range rows {
		groups[int(w.Tiers.TierOf(outer[i/width]))*width+i%width] += c
	}
	out := make([]runner.PartitionFractions, asgraph.NumTiers)
	for t := range out {
		out[t], _ = runner.FoldPartitions(groups[t*width : (t+1)*width])
	}
	return out
}

// RolloutPoint is one step of a rollout experiment: the metric delta
// over the baseline, per model.
type RolloutPoint struct {
	Name        string
	NonStubs    int
	SecuredASes int
	// Delta[model] is H(S) − H(∅).
	Delta [policy.NumModels]runner.Metric
}

// Rollout computes E7/E9/E12 (Figures 7(a), 8, 11): the metric
// improvement at each step of the given rollout, over destinations D
// (pass w.D for H_{M',V}; the CPs for Figure 8). The baseline and every
// step, for every model, are declared as one sweep grid and evaluated in
// a single parallel pass. Figure 7's error bars are the same rollout
// built with simplex stubs (deploy's simplexStubs).
func (w *Workload) Rollout(steps []deploy.Step, D []asgraph.AS, lp policy.LocalPref) []RolloutPoint {
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for i, step := range steps {
		deployments = append(deployments, sweep.Deployment{Name: fmt.Sprintf("step%d", i), Dep: step.Deployment})
	}
	res := w.evaluate(w.grid(lp, deployments, D))
	if res == nil {
		return nil
	}
	out := make([]RolloutPoint, 0, len(steps))
	for i, step := range steps {
		pt := RolloutPoint{
			Name:        step.Name,
			NonStubs:    step.NonStubCount(w.G),
			SecuredASes: step.Deployment.SecureCount(),
		}
		for _, model := range policy.Models {
			base := res.Cell("baseline", model).Metric
			pt.Delta[model] = res.Cell(fmt.Sprintf("step%d", i), model).Metric.Delta(base)
		}
		out = append(out, pt)
	}
	return out
}

// SecureDestDeltas computes E8/E10/E11/E13 (Figures 7(b), 9, 10, 12):
// for each secure destination d ∈ S (sampled up to MaxPerDest), the
// change H_{M',d}(S) − H_{M',d}(∅), per model, as lower bounds. The
// returned slices are sorted non-decreasingly, exactly like the figures'
// destination sequences.
func (w *Workload) SecureDestDeltas(dep *core.Deployment, lp policy.LocalPref) [policy.NumModels][]float64 {
	secure := dep.Full.Members()
	ds, _ := runner.SamplePairs(secure, nil, w.MaxPerDest, 0)
	grid := w.grid(lp, []sweep.Deployment{{Name: "with", Dep: dep}, {Name: "without"}}, ds)
	grid.PerDest = true
	var out [policy.NumModels][]float64
	res := w.evaluate(grid)
	if res == nil {
		return out
	}
	for _, model := range policy.Models {
		with := res.Cell("with", model).PerDest
		without := res.Cell("without", model).PerDest
		deltas := make([]float64, len(ds))
		for i := range ds {
			deltas[i] = with[i].Lo - without[i].Lo
		}
		sort.Float64s(deltas)
		out[model] = deltas
	}
	return out
}

// MeanDelta averages a sorted delta sequence (the aggregate the paper
// quotes for Section 5.3.1's early-adopter comparisons).
func MeanDelta(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// CPFate computes E15 (Figure 13): for each content-provider
// destination, the fraction of sources with secure routes under normal
// conditions and how many of those are lost to downgrades, under the
// "Tier 1s + CPs + stubs" deployment.
func (w *Workload) CPFate(model policy.Model, lp policy.LocalPref) ([]asgraph.AS, []rootcause.Accounting) {
	dep := deploy.Build(w.G, w.Tiers, deploy.Spec{
		NumTier1: 13, CPs: w.Meta.CPs, IncludeStubs: true,
	})
	cps, width := w.Meta.CPs, rootcause.Width(1)
	rows := w.walk(cps, w.M, width, rootcause.Kernel(w.G, []policy.Model{model}, lp, dep))
	accs := make([]rootcause.Accounting, len(cps))
	for i := range len(rows) / width { // no rows after a failure
		accs[i] = rootcause.Accounts(w.G.N(), rows[i*width:(i+1)*width])[0]
	}
	return cps, accs
}

// RootCause computes E16 (Figure 16) and E17 (Table 3, the phenomena
// observed: fields > 0): the metric-change decomposition of every model
// at the last step of the Tier 1+2 rollout, over all of M and over the
// attackers outside the deployment, the only ones Theorem 3.1's
// "no downgrades under security 1st" covers. One attacker-major walk
// yields both.
func (w *Workload) RootCause(lp policy.LocalPref) (all, outside [policy.NumModels]rootcause.Accounting) {
	dep := w.Tier12[len(w.Tier12)-1].Deployment
	width := rootcause.Width(policy.NumModels)
	newKernel := rootcause.Kernel(w.G, policy.Models[:], lp, dep)
	rows := w.walk(w.M, w.D, width, func() runner.PairKernel {
		kernel := newKernel()
		return func(row []int64, m, d asgraph.AS) { kernel(row, d, m) }
	})
	sums := make([]int64, 2*width)
	for i, c := range rows {
		sums[i%width] += c
		if !dep.Full.Has(w.M[i/width]) {
			sums[width+i%width] += c
		}
	}
	copy(all[:], rootcause.Accounts(w.G.N(), sums[:width]))
	copy(outside[:], rootcause.Accounts(w.G.N(), sums[width:]))
	return all, outside
}

// NumEarlyAdopters is the number of E14's early-adopter choices.
const NumEarlyAdopters = 3

// EarlyAdopter computes E14 (Section 5.3.1) for the i-th competing
// early-adopter choice — Tier 1s + stubs, Tier 1s + CPs + stubs, 13 Tier
// 2s + stubs — the average per-secure-destination improvement. Each
// choice runs as its own {without, with} grid on its own
// secure-destination sample, routed through the incremental scheduler
// like every metric grid. Fusing the three choices into one grid over
// the union of their samples was tried and rejected: the samples barely
// overlap, so the fused grid evaluates every choice against every other
// choice's destinations — roughly twice the cells — and the signed-delta
// links between the choices' deployments cannot buy that back (measured
// ~1.5× slower end to end).
func (w *Workload) EarlyAdopter(i int, lp policy.LocalPref) EarlyAdopterResult {
	choice := [NumEarlyAdopters]struct {
		name string
		spec deploy.Spec
	}{
		{"Tier 1s + stubs", deploy.Spec{NumTier1: 13, IncludeStubs: true}},
		{"Tier 1s + CPs + stubs", deploy.Spec{NumTier1: 13, CPs: w.Meta.CPs, IncludeStubs: true}},
		{"13 Tier 2s + stubs", deploy.Spec{NumTier2: 13, IncludeStubs: true}},
	}[i]
	dep := deploy.Build(w.G, w.Tiers, choice.spec)
	deltas := w.SecureDestDeltas(dep, lp)
	r := EarlyAdopterResult{Name: choice.name, Secured: dep.SecureCount()}
	for _, model := range policy.Models {
		r.MeanDelta[model] = MeanDelta(deltas[model])
	}
	return r
}

// EarlyAdopterResult is one row of the Section 5.3.1 comparison.
type EarlyAdopterResult struct {
	Name      string
	Secured   int
	MeanDelta [policy.NumModels]float64
}
