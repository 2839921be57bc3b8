// Package sweep evaluates declarative (security model × deployment ×
// attacker × destination) grids — the aggregate the paper computed on a
// BlueGene supercomputer (Appendix H) — and serializes the results.
//
// A Grid names the four axes once; Prepare expands the full cross
// product, orders it, and fingerprints it into a Plan, and every
// evaluation — in memory, checkpointed, distributed — is that Plan's one
// sharded loop (plan.go): strips of the scheduled cell order fan out over
// the runner's chunked worker pool and the integer happiness counts fold
// back together in axis order. Because every cell is accumulated
// positionally and reduced in a fixed order, the same grid produces
// byte-identical results at any worker count.
//
// The grid layer is what cmd/experiments and cmd/bgpsim build on for
// their batch modes, and internal/exp uses it to evaluate whole rollout
// schedules in one parallel pass instead of one harness call per
// (step, model) pair.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
)

// IncrementalMode selects a grid's evaluation order. The default,
// IncrementalAuto, uses chain-major incremental scheduling whenever the
// planner links any two deployments by a signed delta — nested chains
// and signed-delta forests over arbitrary, even pairwise-incomparable,
// axes alike; IncrementalOff forces the deployment-outermost order with
// no RunDelta reuse (the identity order: the same walk over single-step
// chains — the reference the benchmark compares against). Results are
// byte-identical either way.
type IncrementalMode int

const (
	// IncrementalAuto (the zero value): chain-major scheduling with
	// RunDelta reuse whenever the planner can link deployments cheaper
	// than re-running them from scratch — nested axes walk grow-only
	// chains, incomparable ones a signed-delta forest; only axes with no
	// linkable pair (a singleton, or every pairwise delta at least a
	// from-scratch run) degrade to the identity order.
	IncrementalAuto IncrementalMode = iota
	// IncrementalOff is the identity order: every cell is a chain head,
	// in deployment-outermost order, and no cell reuses another's fixed
	// point. A head still need not be an engine run: security-free cells
	// of one (attacker, destination) pair share one baseline run under
	// every mode (scheduler.go).
	IncrementalOff
)

// String returns the canonical spelling of the mode.
func (m IncrementalMode) String() string {
	if m == IncrementalOff {
		return "off"
	}
	return "auto"
}

// ParseIncrementalMode resolves an incremental-mode token: "auto" (or
// empty) or "off". Spec files and persisted job records written while
// the mode had a third "on" state (it behaved exactly like auto) are
// still accepted: "on" and the boolean spellings "true"/"1"/"yes" mean
// auto, "false"/"0"/"no" mean off. An unrecognized value yields an
// error naming the offending token and every valid spelling.
func ParseIncrementalMode(s string) (IncrementalMode, error) {
	switch strings.ToLower(s) {
	case "", "auto", "on", "true", "1", "yes":
		return IncrementalAuto, nil
	case "off", "false", "0", "no":
		return IncrementalOff, nil
	}
	return 0, fmt.Errorf(`sweep: unknown incremental mode %q (valid modes are "auto" (aliases "", "on", "true", "1", "yes") or "off" (aliases "false", "0", "no"))`, s)
}

// Deployment is one named point on the deployment axis. A nil Dep is
// the baseline S = ∅ (RPKI origin authentication only).
type Deployment struct {
	Name string
	Dep  *core.Deployment
}

// Grid declares a full evaluation grid. Zero-valued axes get defaults:
// all three security models, and the single baseline deployment.
// Attackers and Destinations must be non-empty.
type Grid struct {
	Models       []policy.Model
	LP           policy.LocalPref
	Deployments  []Deployment
	Attackers    []asgraph.AS
	Destinations []asgraph.AS

	// PerDest adds the per-destination metric series to every cell
	// (the sequences plotted in Figures 9, 10, and 12).
	PerDest bool

	// Attack is the threat-model strategy every cell runs under; nil is
	// the default one-hop "m, d" hijack of Section 3.1.
	Attack core.Attack

	// Incremental selects the scheduling mode. The zero value,
	// IncrementalAuto, orders the cell space chain-major: the
	// deployment axis is covered by delta walks — nested chains, or a
	// minimum-cost signed-delta forest when the axis holds incomparable
	// deployments (see chain.go) — and each (model, destination,
	// attacker) triple walks its chain with Engine.RunDelta replaying
	// each step's signed delta onto the previous fixed point —
	// byte-identical results, substantially faster for rollout-shaped
	// and incomparable axes alike, and an automatic degradation to the
	// identity order when no two deployments link. IncrementalOff forces
	// the identity order.
	Incremental IncrementalMode

	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
}

// Cell is the aggregate for one (deployment, model) pair over all
// (attacker, destination) pairs of the grid.
type Cell struct {
	Deployment string        `json:"deployment"`
	Model      string        `json:"model"`
	SecureASes int           `json:"secure_ases"`
	Metric     runner.Metric `json:"metric"`
	// PerDest is indexed like Grid.Destinations; only present when the
	// grid requested it.
	PerDest []runner.Metric `json:"per_dest,omitempty"`
}

// Result is a fully evaluated grid.
type Result struct {
	GraphN int    `json:"graph_n"`
	LP     string `json:"lp"`
	// Attack names a non-default threat model; omitted for the one-hop
	// hijack so default results stay byte-identical across versions.
	Attack       string `json:"attack,omitempty"`
	Attackers    int    `json:"attackers"`
	Destinations int    `json:"destinations"`
	// Cells is ordered deployment-major, then model, matching the
	// declaration order of the grid's axes.
	Cells []Cell `json:"cells"`
}

// Cell returns the cell for a (deployment name, model) pair, or nil.
func (r *Result) Cell(deployment string, model policy.Model) *Cell {
	name := model.String()
	for i := range r.Cells {
		if r.Cells[i].Deployment == deployment && r.Cells[i].Model == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// WriteJSON serializes the result, indented, with a trailing newline.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// destAcc is the integer happiness count for one task; keeping the
// per-destination sums exact makes the reduction independent of both
// worker count and summation order.
type destAcc struct {
	lo, hi, pairs int
}

// axes is a grid's validated, defaulted expansion: the concrete model
// and deployment lists plus the dimensions of the task and cell spaces.
// Tasks are (deployment, model, destination) triples in declaration
// order; cells append the attacker as the innermost axis, so cell
// ci = task*na + attackerIndex.
type axes struct {
	models []policy.Model
	deps   []Deployment
	nm, nd int
	na     int
	tasks  int // len(deps) * nm * nd
	cells  int // tasks * na
}

// expand validates the grid and materializes its axes.
func (gr *Grid) expand() (*axes, error) {
	models := gr.Models
	if len(models) == 0 {
		models = policy.Models[:]
	}
	deps := gr.Deployments
	if len(deps) == 0 {
		deps = []Deployment{{Name: "baseline"}}
	}
	if len(gr.Attackers) == 0 || len(gr.Destinations) == 0 {
		return nil, fmt.Errorf("sweep: grid needs attackers and destinations (have %d, %d)",
			len(gr.Attackers), len(gr.Destinations))
	}
	// Linear dedup scans: the model axis is at most NumModels long and
	// deployment axes are short enough that the quadratic scan is
	// cheaper than building throwaway maps.
	for i, dp := range deps {
		if dp.Name == "" {
			return nil, fmt.Errorf("sweep: deployment with empty name")
		}
		for j := 0; j < i; j++ {
			if deps[j].Name == dp.Name {
				return nil, fmt.Errorf("sweep: duplicate deployment name %q", dp.Name)
			}
		}
	}
	for i, m := range models {
		for j := 0; j < i; j++ {
			if models[j] == m {
				return nil, fmt.Errorf("sweep: duplicate model %v", m)
			}
		}
	}
	ax := &axes{
		models: models, deps: deps,
		nm: len(models), nd: len(gr.Destinations), na: len(gr.Attackers),
	}
	ax.tasks = len(deps) * ax.nm * ax.nd
	ax.cells = ax.tasks * ax.na
	return ax, nil
}

// attackName is the grid's threat-model name with the nil default
// resolved.
func (gr *Grid) attackName() string {
	if gr.Attack == nil {
		return core.DefaultAttack.Name()
	}
	return gr.Attack.Name()
}

// workerState is the per-worker scratch of grid evaluation: one lazily
// built engine serving every security model in turn (nothing per-AS
// depends on the model, so a set of slabs per model would only multiply
// the worker's memory), plus the reusable accumulator, partial, and
// chain carry. The engine's epoch reset makes reuse across deployments
// and destinations cheap, and the shard scratch makes the steady-state
// shard loop allocation-free — an EnginePool recycles the whole state,
// engine and scratch alike.
type workerState struct {
	eng *core.Engine
	n   int              // the AS count eng's slabs are sized for
	lp  policy.LocalPref // the variant eng's stage plans were compiled for

	// acc is the per-shard task accumulator evaluateRange adds into
	// (epoch-stamped, so a new shard needs no O(tasks) clear).
	acc shardAcc

	// partial is the reusable ShardPartial the commit path hands out
	// (see RunShards' commit contract).
	partial ShardPartial

	// chainCarry hands chain-tail fixed points across the shard
	// boundaries interior to one dispatch strip.
	chainCarry carry

	// cells counts the valid cells this state has walked and runs the
	// engine calls it made for them (fewer: memo-served cells make
	// none). Nothing in the evaluation reads them; tests do.
	cells, runs int
}

// engine returns the state's engine pointed at g under (model, lp). Slabs
// are sized by the AS count and stage plans compiled per LP variant, so a
// pooled engine built for another size or variant is replaced; for another
// graph of the same size, or another model, it is rebound (Rebind, SetModel).
func (ws *workerState) engine(g *asgraph.Graph, model policy.Model, lp policy.LocalPref) *core.Engine {
	e := ws.eng
	if e == nil || ws.n != g.N() || ws.lp != lp {
		e = core.NewEngineLP(g, model, lp)
		ws.eng, ws.n, ws.lp = e, g.N(), lp
	} else if e.Graph() != g {
		e.Rebind(g)
	}
	// Model switches fall between group runs, which start from scratch:
	// no RunDelta chain, and no carried fixed point, spans two models.
	e.SetModel(model)
	return e
}

// reduce folds the exact per-task integer counts into a Result in axis
// declaration order. Because the counts are integers and the fold order
// is fixed, the result is independent of how the tasks were scheduled —
// across worker counts, shard sizes, and checkpoint resumes alike.
func (pl *Plan) reduce(acc []destAcc) *Result {
	gr, g, ax := &pl.gr, pl.g, pl.ax
	res := &Result{
		GraphN:       g.N(),
		LP:           gr.LP.String(),
		Attackers:    ax.na,
		Destinations: ax.nd,
		Cells:        make([]Cell, 0, len(ax.deps)*ax.nm),
	}
	if name := gr.attackName(); name != core.DefaultAttack.Name() {
		res.Attack = name
	}
	sources := float64(g.N() - 2)
	for si, dp := range ax.deps {
		for mi, model := range ax.models {
			cell := Cell{
				Deployment: dp.Name,
				Model:      model.String(),
				SecureASes: dp.Dep.SecureCount(),
			}
			if gr.PerDest {
				cell.PerDest = make([]runner.Metric, ax.nd)
			}
			var lo, hi float64
			pairs := 0
			for di := 0; di < ax.nd; di++ {
				a := acc[(si*ax.nm+mi)*ax.nd+di]
				lo += float64(a.lo)
				hi += float64(a.hi)
				pairs += a.pairs
				if gr.PerDest && a.pairs > 0 {
					cell.PerDest[di] = runner.Metric{
						Lo:    float64(a.lo) / (float64(a.pairs) * sources),
						Hi:    float64(a.hi) / (float64(a.pairs) * sources),
						Pairs: a.pairs,
					}
				}
			}
			if pairs > 0 {
				cell.Metric = runner.Metric{
					Lo:    lo / (float64(pairs) * sources),
					Hi:    hi / (float64(pairs) * sources),
					Pairs: pairs,
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res
}
