package sweep

import (
	"sort"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
)

// Deployment-ordered scheduling. A chainPlan maps the grid's deployment
// axis onto walks the scheduler replays with Engine.RunDelta: within a
// walk, consecutive deployments differ by a recorded signed (added,
// removed) delta, so per (model, destination, attacker) the walk reuses
// each step's fixed point instead of running every cell from scratch.
//
// Every grid is scheduled by such a plan. Grids with nothing to reuse —
// IncrementalOff, or an axis no delta links — get singletonChainPlan's
// one-step walks in axis order, which is the raw cell order. For the
// rest, two planners produce walks:
//
//   - The legacy nested-chain cover (buildNestedChainPlan): chains whose
//     every step is a capability superset of the one before, so the walk
//     needs only grow deltas. Its layout — and therefore its checkpoint
//     fingerprint — is pinned by every pre-forest release.
//   - The signed-delta forest (buildForestPlan): a minimum-cost spanning
//     structure over the whole axis, where the cost of an edge u→v is
//     the adjacency edge-volume of DeploymentDelta(u, v) — the same
//     quantity core.overDeltaThreshold measures — and a virtual root
//     edge costs a calibrated from-scratch run. Incomparable
//     deployments (Fig 8's content-provider variants, the EarlyAdopters
//     scenarios) are linked by remove-then-add deltas proportional to
//     their symmetric difference instead of each re-running from
//     scratch.
//
// buildChainPlan prices both walks under one cost model and keeps the
// nested plan unless the forest walk is strictly cheaper. That rule is
// the compatibility story: every axis the nested planner already
// covered optimally (all rollout-shaped grids) keeps its exact layout,
// chain order, and "schedule:chain-major" fingerprint, so pre-existing
// checkpoints resume unchanged; only axes where signed deltas genuinely
// win get the new forest layout, under its own fingerprint tag.
//
// Either way the plan only regroups work: RunDelta is exact and the
// aggregation stays positional, so results remain byte-identical to the
// non-incremental evaluation at any worker count, shard size, and walk
// shape — the goldens pin this.

// chainStep is one deployment of a walk, with the signed capability
// delta since the walk's previous step (both empty for the head, which
// always runs from scratch). The scheduler replays removed-then-added
// in a single RunDelta call.
type chainStep struct {
	si      int // index into the grid's deployment axis
	added   []asgraph.AS
	removed []asgraph.AS
}

// chainPlan maps the deployment axis onto delta walks ("chains" — the
// scheduler's block structure predates the forest and treats each
// linearized tree exactly like a nested chain).
type chainPlan struct {
	chains [][]chainStep

	// forest marks a layout produced by the signed-delta forest builder.
	// It selects the "schedule:forest" fingerprint tag (which also hashes
	// the walk structure), so forest layouts can never be confused with
	// the nested-chain or identity layouts on resume.
	forest bool

	// parentOf[si] is the deployment index of si's tree parent (the
	// nested predecessor for chain plans), or -1 for walk heads; the
	// singleton plan, all heads, leaves it nil. Tests and the fuzzer
	// check the tree edges against the cost model here; the scheduler
	// itself only walks chains.
	parentOf []int

	// Cost-model totals for one (model, destination, attacker) group
	// walk, exposed through ShardStats: heads from-scratch runs,
	// deltaEdges RunDelta steps, and the predicted adjacency edge-volume
	// of the whole walk.
	heads        int
	deltaEdges   int
	predictedVol int64
}

// depSize is the capability size used for the nested planner's
// smallest-first ordering.
func depSize(dp *core.Deployment) int {
	if dp == nil {
		return 0
	}
	return dp.Full.Len() + dp.Simplex.Len()
}

// fromScratchCost calibrates a from-scratch engine run in adjacency
// edge-volume units: the delta-threshold fraction of the graph's total
// volume, exactly the bound past which RunDelta itself abandons a delta
// and falls back to RunAttack (core.DefaultDeltaThreshold). A delta
// edge is only worth planning when it is strictly cheaper than this.
func fromScratchCost(g *asgraph.Graph) int64 {
	c := int64(core.DefaultDeltaThreshold * float64(core.GraphVolume(g)))
	if c < 1 {
		c = 1 // degenerate graphs: keep zero-cost duplicate edges plannable
	}
	return c
}

// deltaCostFactor is the propagation overhead the cost model charges on
// a delta step: an incremental recomputation dirties the changed
// members' adjacency (what DeltaVolume measures) and then spreads
// downstream through every AS whose route crossed a changed member, so
// the adjacency volume systematically underprices the work. Removing a
// transit hub is the worst case — its volume is a few dozen edges while
// the re-exploration touches much of the graph — and without the margin
// the planner happily bridges two nested chains through such a removal,
// priced just under a scratch run but measurably slower than one
// (Fig 7a's step↔simplex axis regressed ~28% exactly this way). A
// factor of two keeps only deltas that stay cheap even when propagation
// doubles the seeded region.
const deltaCostFactor = 2

// deltaStepCost prices one walk step of volume v against the scratch
// calibration. At v ≥ scratch, RunDelta's own adaptive fallback turns
// the step into a fresh run, so it costs exactly scratch; below the
// threshold the step runs incrementally at the overhead-weighted volume,
// which can legitimately price above scratch — a near-threshold delta
// is slower than starting over, and the model must say so rather than
// cap it.
func deltaStepCost(v, scratch int64) int64 {
	if v >= scratch {
		return scratch
	}
	return deltaCostFactor * v
}

// price fills the plan's cost-model totals: each chain costs one
// from-scratch head plus its walk steps under deltaStepCost. The walk
// steps, not the tree edges, are what the scheduler replays — a DFS
// backtrack jumps from a leaf to a sibling subtree, and that jump's
// full remove-up-then-add-down volume is priced here even though the
// tree edges on either side of it were individually cheap.
func (p *chainPlan) price(g *asgraph.Graph, scratch int64) {
	p.heads = len(p.chains)
	p.deltaEdges = 0
	p.predictedVol = int64(p.heads) * scratch
	for _, ch := range p.chains {
		p.deltaEdges += len(ch) - 1
		for _, step := range ch[1:] {
			v := core.DeltaVolume(g, step.added, step.removed)
			p.predictedVol += deltaStepCost(v, scratch)
		}
	}
}

// singletonChainPlan is the plan with nothing to reuse: one single-step
// chain per deployment, in axis order, every step a from-scratch head.
// Its scheduled order is the raw cell order (position p is cell p), so
// the layouts it yields are the pre-scheduler ones. The chains are sliced
// from one backing array: a job's plan costs the same few allocations
// whatever the axis length.
func singletonChainPlan(k int, scratch int64) *chainPlan {
	steps := make([]chainStep, k)
	p := &chainPlan{
		chains:       make([][]chainStep, k),
		heads:        k,
		predictedVol: int64(k) * scratch,
	}
	for si := range steps {
		steps[si].si = si
		p.chains[si] = steps[si : si+1 : si+1]
	}
	return p
}

// buildChainPlan plans the deployment axis on g: it builds the legacy
// nested-chain cover and the signed-delta forest, prices both walks
// under the same cost model, and returns the nested plan unless the
// forest is strictly cheaper. Ties go to the nested plan so every axis
// it already covers optimally — all purely nested rollouts — keeps its
// historical layout and checkpoint fingerprint bit for bit.
func buildChainPlan(deps []Deployment, g *asgraph.Graph) *chainPlan {
	nested := buildNestedChainPlan(deps)
	scratch := fromScratchCost(g)
	nested.price(g, scratch)
	forest := buildForestPlan(deps, g, scratch)
	forest.price(g, scratch)
	if forest.predictedVol < nested.predictedVol {
		return forest
	}
	return nested
}

// buildNestedChainPlan greedily covers the deployment axis with nested
// chains: deployments are considered smallest first, and each attaches
// to the chain whose tail is its largest nested predecessor (ties to
// the earliest chain), or starts a new chain. Greedy suffices — an
// imperfect cover only costs extra from-scratch chain heads, never
// correctness — and the layout it emits is the pre-forest layout every
// existing chain-major checkpoint was written under.
func buildNestedChainPlan(deps []Deployment) *chainPlan {
	order := make([]int, len(deps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return depSize(deps[order[a]].Dep) < depSize(deps[order[b]].Dep)
	})
	p := &chainPlan{parentOf: make([]int, len(deps))}
	for _, si := range order {
		best, bestSize := -1, -1
		var bestAdded []asgraph.AS
		for ci := range p.chains {
			tail := p.chains[ci][len(p.chains[ci])-1].si
			if sz := depSize(deps[tail].Dep); sz > bestSize {
				// Nested exactly when nothing is removed: this planner
				// emits only chains whose every step is a superset of
				// the one before, so its walks never need removal
				// deltas.
				if added, removed := core.DeploymentDelta(deps[tail].Dep, deps[si].Dep); len(removed) == 0 {
					best, bestSize, bestAdded = ci, sz, added
				}
			}
		}
		if best >= 0 {
			p.parentOf[si] = p.chains[best][len(p.chains[best])-1].si
			p.chains[best] = append(p.chains[best], chainStep{si: si, added: bestAdded})
		} else {
			p.parentOf[si] = -1
			p.chains = append(p.chains, []chainStep{{si: si}})
		}
	}
	return p
}

// buildForestPlan builds the minimum-cost signed-delta forest over the
// deployment axis and linearizes it into scheduler walks.
//
// Every deployment is a node; the edge u→v costs the adjacency
// edge-volume of DeploymentDelta(u, v), and a virtual root edge costs a
// from-scratch run (scratch). The delta-volume cost is symmetric —
// added(u→v) is removed(v→u) — so the minimum spanning arborescence
// under the virtual root is a plain MST of the augmented graph, which
// Prim's algorithm finds exactly. The axis is small, so the O(k²)
// set-difference sweep is fine: each candidate edge's delta is computed
// once, when its tail joins the tree. A delta edge is adopted only when
// its overhead-weighted deltaStepCost is strictly cheaper than scratch
// (the forest-invariant property tests pin this), and all tie-breaks
// are deterministic — cheapest cost, then
// lowest deployment index, with the incumbent parent kept on equal
// relaxations — because the distributed path recomputes this plan
// independently on every worker and the layouts must agree bit for bit.
//
// Each tree is linearized by a DFS preorder (children in attachment
// order), and every step records the signed delta from its walk
// predecessor — not its tree parent: after a DFS backtrack the walk
// jumps from a leaf to a sibling subtree, and RunDelta needs the exact
// remove-up-then-add-down delta between the two walk-consecutive
// deployments. The tree structure only decides which deployments end up
// adjacent; correctness of every step is DeploymentDelta's contract.
func buildForestPlan(deps []Deployment, g *asgraph.Graph, scratch int64) *chainPlan {
	k := len(deps)
	p := &chainPlan{forest: true, parentOf: make([]int, k)}
	if k == 0 {
		return p
	}

	inTree := make([]bool, k)
	best := make([]int64, k) // cheapest known attachment cost
	parent := make([]int, k) // -1: attach to the virtual root (from scratch)
	children := make([][]int, k)
	var roots []int
	for i := range best {
		best[i] = scratch
		parent[i] = -1
	}
	for picked := 0; picked < k; picked++ {
		v := -1
		for i := 0; i < k; i++ {
			if !inTree[i] && (v < 0 || best[i] < best[v]) {
				v = i
			}
		}
		inTree[v] = true
		p.parentOf[v] = parent[v]
		if parent[v] < 0 {
			roots = append(roots, v)
		} else {
			children[parent[v]] = append(children[parent[v]], v)
		}
		for w := 0; w < k; w++ {
			if inTree[w] {
				continue
			}
			// Volume-only probe: the signed member lists are materialized
			// later, and only for the walk edges the DFS actually takes.
			// Candidates compete at their deltaStepCost pricing, so an
			// edge joins the tree only when its overhead-weighted cost
			// still beats the virtual root's from-scratch run.
			c := deltaStepCost(core.DeploymentDeltaVolume(g, deps[v].Dep, deps[w].Dep), scratch)
			if c < scratch && c < best[w] {
				best[w] = c
				parent[w] = v
			}
		}
	}

	stack := make([]int, 0, k)
	for _, root := range roots {
		ch := make([]chainStep, 0, k)
		prev := -1
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			step := chainStep{si: v}
			if prev >= 0 {
				step.added, step.removed = core.DeploymentDelta(deps[prev].Dep, deps[v].Dep)
			}
			ch = append(ch, step)
			cs := children[v]
			for i := len(cs) - 1; i >= 0; i-- { // reversed push: pop in attachment order
				stack = append(stack, cs[i])
			}
			prev = v
		}
		p.chains = append(p.chains, ch)
	}
	return p
}
