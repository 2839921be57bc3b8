package sweep

import (
	"math"
	"slices"
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
// one-step walks in axis order, which is the raw cell order. The rest
// get buildChainPlan's walks: a minimum spanning forest over the axis
// under DeploymentDelta's edge volume, the distance between two
// deployments, each tree rooted at its smallest deployment. A superset
// chain — a rollout — is its own spanning tree and walks in size order;
// incomparable deployments (Fig 8's content-provider variants, the
// early-adopter scenarios) are linked by remove-then-add deltas instead
// of each re-running from scratch.
//
// One cost model (costModel) prices every walk step by what the engine
// will dirty — the expected first-pass seed of RunDelta — against a
// from-scratch head, and the planner links no step it does not price
// strictly below that head: walks are cut where a step would cost a run
// or more. The walks depend on the graph through that model, so the
// checkpoint fingerprint hashes them (Grid.fingerprint).
//
// The plan only regroups work: RunDelta is exact and the aggregation
// stays positional, so results remain byte-identical to the
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
	cost    int64 // the cost model's price of the step (costModel.walkStep)
}

// chainPlan maps the deployment axis onto delta walks ("chains": the
// scheduler treats each linearized tree as one chain of steps).
type chainPlan struct {
	chains [][]chainStep

	// parentOf[si] is the deployment index of si's tree parent, or -1
	// for walk heads; the singleton plan, all heads, leaves it nil. Tests
	// and the fuzzer check the tree edges against the cost model here;
	// the scheduler itself only walks chains.
	parentOf []int

	// Cost-model totals for one (model, destination, attacker) group
	// walk, exposed through ShardStats: heads from-scratch runs,
	// deltaEdges RunDelta steps, and the whole walk's price in adjacency
	// edge-volume units (costModel).
	heads        int
	deltaEdges   int
	predictedVol int64
}

// depSize is a deployment's capability size: the planner roots each
// tree at its smallest deployment, and the baseline has size 0.
func depSize(dp *core.Deployment) int {
	if dp == nil {
		return 0
	}
	return dp.Full.Len() + dp.Simplex.Len()
}

// fromScratchCost is the planner's price of a from-scratch head, in
// adjacency edge-volume units: plannerScratchFrac of the graph's total
// volume (DESIGN.md "Measured go/no-go for the fitted cost model").
func fromScratchCost(g *asgraph.Graph) int64 {
	c := int64(plannerScratchFrac * float64(core.GraphVolume(g)))
	if c < 1 {
		c = 1 // degenerate graphs: keep zero-cost duplicate edges plannable
	}
	return c
}

// plannerScratchFrac prices a from-scratch head at the expected seed
// volume of a step that costs as much. Read off the engine alone, that
// break-even is near 0.4 of the graph's volume (DESIGN.md "Measured
// go/no-go for the fitted cost model"); the planner prices the head at
// 0.75, where the benchmark's axes link steps priced up to 0.68 and
// leave unlinked steps priced at 0.86 or more.
const plannerScratchFrac = 0.75

// costModel prices walk steps by what the engine will dirty, against a
// from-scratch head. A step's price is its expected seed volume over the
// grid's destinations, taken as uniform over the ASes: the volume
// core.DeploymentSeedVolume probes — the changed ASes and their
// customers, RunDelta's first dirty set — except for the destinations
// the step makes or unmakes origin-secure, where every secure route
// changes and the engine re-routes the whole graph.
type costModel struct {
	g       *asgraph.Graph
	deps    []Deployment
	total   int64 // the graph's volume
	scratch int64
	seen    *asgraph.Set // DeploymentSeedVolume's scratch
	prices  []int64      // step prices by from·len(deps)+to, -1 until probed
}

func newCostModel(deps []Deployment, g *asgraph.Graph) *costModel {
	cm := &costModel{
		g: g, deps: deps, total: core.GraphVolume(g), scratch: fromScratchCost(g),
		seen: asgraph.NewSet(g.N()), prices: make([]int64, len(deps)*len(deps)),
	}
	for i := range cm.prices {
		cm.prices[i] = -1
	}
	return cm
}

// step prices the delta from deployment i to deployment j.
func (cm *costModel) step(i, j int) int64 {
	c := &cm.prices[i*len(cm.deps)+j]
	if *c < 0 {
		prev, next := cm.deps[i].Dep, cm.deps[j].Dep
		*c = cm.expected(core.DeploymentSeedVolume(cm.g, prev, next, cm.seen), prev, next)
	}
	return *c
}

// expected is the price of the delta prev → next when it seeds seed.
// The seed volume is at least the delta's own volume, so expected on
// DeploymentDeltaVolume is a lower bound of step: the planner's cheap
// filter.
func (cm *costModel) expected(seed int64, prev, next *core.Deployment) int64 {
	flips := int64(core.OriginSecureFlips(prev, next))
	return seed + flips*(cm.total-seed)/int64(cm.g.N())
}

// walkStep prices step pos of the walk ch, one of walks walks. A step
// out of the baseline (nothing secure) costs the engine nothing over the
// head it replaces: the walk serves the baseline from the memo in every
// group but a pair's first, which leaves the step the head its
// deployment would be anyway, and in that first group the step is a
// no-op or a delta the engine abandons at its fallback bound. It is
// priced at nothing when its walk goes on past it, or is the plan's only
// walk; otherwise it is priced like any other step, so an unpriced one
// is cut and the baseline stands alone, filling the memo the other walks
// read: a lease or resume that misses a pair's slot then re-runs the
// baseline only, not the step behind it.
func (cm *costModel) walkStep(ch []chainStep, pos, walks int) int64 {
	if pos == 1 && (len(ch) > 2 || walks == 1) && depSize(cm.deps[ch[0].si].Dep) == 0 {
		return 0
	}
	return cm.step(ch[pos-1].si, ch[pos].si)
}

// price fills the plan's cost-model totals: each chain costs one
// from-scratch head plus its walk steps. The walk steps, not the tree
// edges, are what the scheduler replays — a DFS backtrack jumps from a
// leaf to a sibling subtree, and that jump's full remove-up-then-add-down
// delta is priced here even though the tree edges on either side of it
// were individually cheap.
func (p *chainPlan) price(cm *costModel) {
	p.heads = len(p.chains)
	p.deltaEdges = 0
	p.predictedVol = int64(p.heads) * cm.scratch
	for _, ch := range p.chains {
		p.deltaEdges += len(ch) - 1
		for _, step := range ch[1:] {
			p.predictedVol += step.cost
		}
	}
}

// splitUnpriced prices the plan's walk steps and cuts every one the
// cost model does not price strictly below a from-scratch head: the
// deployment there heads a walk of its own. The planner plans no step it
// predicts to cost a run or more. Steps out of a leading baseline are
// priced last, on the walks the other cuts leave, since their price
// depends on whether the walk goes on.
func (p *chainPlan) splitUnpriced(cm *costModel) {
	for _, lead := range [2]bool{false, true} {
		cut := false
		for _, ch := range p.chains {
			for pos := 1; pos < len(ch); pos++ {
				if (pos == 1 && depSize(cm.deps[ch[0].si].Dep) == 0) == lead {
					ch[pos].cost = cm.walkStep(ch, pos, len(p.chains))
					cut = cut || ch[pos].cost >= cm.scratch
				}
			}
		}
		if cut {
			p.cutAt(cm.scratch)
		}
	}
}

// cutAt splits the walks before every step priced at scratch or more.
// A walk cut after a DFS backtrack can leave steps whose tree parent
// walks in the piece before the cut; they hang from their walk
// predecessor instead, the step they are reached by.
func (p *chainPlan) cutAt(scratch int64) {
	var chains [][]chainStep
	for _, ch := range p.chains {
		start := 0
		for pos := 1; pos < len(ch); pos++ {
			if ch[pos].cost < scratch {
				continue
			}
			chains = append(chains, ch[start:pos:pos])
			ch[pos].added, ch[pos].removed, ch[pos].cost = nil, nil, 0
			p.parentOf[ch[pos].si] = -1
			start = pos
		}
		chains = append(chains, ch[start:])
	}
	for _, ch := range chains {
		for pos := 1; pos < len(ch); pos++ {
			if par := p.parentOf[ch[pos].si]; !slices.ContainsFunc(ch[:pos], func(s chainStep) bool { return s.si == par }) {
				p.parentOf[ch[pos].si] = ch[pos-1].si
			}
		}
	}
	p.chains = chains
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

// buildChainPlan plans the deployment axis on g. An axis that is a chain
// of supersets in size order walks in that order: the edge volume adds
// up along such a chain, so it is its own minimum spanning tree and the
// forest's probes are skipped. Any other axis gets the signed-delta
// forest (buildForestPlan). A baseline the forest leaves alone heads the
// walk with the smallest head, where walkStep's rule prices its step.
// The walks are then cut where the cost model prices a step at a
// from-scratch run or more, and priced.
func buildChainPlan(deps []Deployment, g *asgraph.Graph) *chainPlan {
	cm := newCostModel(deps, g)
	p := supersetChainPlan(deps)
	if p == nil {
		p = buildForestPlan(cm)
		p.leadBaseline(deps)
	}
	p.splitUnpriced(cm)
	p.price(cm)
	return p
}

// supersetChainPlan walks the deployments smallest first (ties in axis
// order) if each is a superset of the one before — nothing is removed
// along the walk — or returns nil.
func supersetChainPlan(deps []Deployment) *chainPlan {
	order := make([]int, len(deps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return depSize(deps[order[a]].Dep) < depSize(deps[order[b]].Dep) })
	p := &chainPlan{parentOf: make([]int, len(deps))}
	ch := make([]chainStep, len(order))
	prev := -1
	for pos, si := range order {
		ch[pos].si = si
		p.parentOf[si] = prev
		if prev >= 0 {
			var removed []asgraph.AS
			if ch[pos].added, removed = core.DeploymentDelta(deps[prev].Dep, deps[si].Dep); len(removed) > 0 {
				return nil
			}
		}
		prev = si
	}
	if len(ch) > 0 {
		p.chains = [][]chainStep{ch}
	}
	return p
}

// leadBaseline moves a baseline the forest left as a walk of its own to
// the head of the walk with the smallest head. The step out of it costs
// the engine nothing when that walk goes on (costModel.walkStep); when
// it does not, splitUnpriced prices the step like any other and cuts it
// back off.
func (p *chainPlan) leadBaseline(deps []Deployment) {
	bi := slices.IndexFunc(p.chains, func(ch []chainStep) bool { return len(ch) == 1 && depSize(deps[ch[0].si].Dep) == 0 })
	if bi < 0 || len(p.chains) == 1 {
		return
	}
	base := p.chains[bi][0]
	chains := slices.Delete(p.chains, bi, bi+1)
	ci := 0
	for i, ch := range chains {
		if depSize(deps[ch[0].si].Dep) < depSize(deps[chains[ci][0].si].Dep) {
			ci = i
		}
	}
	head := &chains[ci][0]
	head.added, head.removed = core.DeploymentDelta(deps[base.si].Dep, deps[head.si].Dep)
	p.parentOf[head.si] = base.si
	chains[ci] = append([]chainStep{base}, chains[ci]...)
	p.chains = chains
}

// buildForestPlan builds the signed-delta forest over the deployment
// axis and linearizes it into scheduler walks.
//
// Every deployment is a node, and the edge u→v is keyed by the adjacency
// edge-volume of DeploymentDelta(u, v). The key is symmetric — added(u→v)
// is removed(v→u) — so the minimum spanning forest is found exactly by
// Prim's algorithm over the candidate edges. The axis is small, so the
// O(k²) set-difference sweep is fine: each candidate edge's key is
// computed once, when its tail joins the tree. An edge is a candidate
// only when the cost model's cheap lower bound (costModel.expected on the
// key) prices it below a from-scratch head, and a node's parent edge is
// adopted only when the full price (costModel.step) is too; otherwise
// the node roots a tree of its own. When no unattached node is
// reachable, the smallest one roots the next tree, so a tree grows from
// its smallest deployment, the way a rollout does. All tie-breaks are
// deterministic — smallest key, then lowest deployment index, with the
// incumbent parent kept on equal relaxations — because the distributed
// path recomputes this plan independently on every worker and the
// layouts must agree bit for bit.
//
// Each tree is linearized by a DFS preorder (children in attachment
// order), and every step records the signed delta from its walk
// predecessor — not its tree parent: after a DFS backtrack the walk
// jumps from a leaf to a sibling subtree, and RunDelta needs the exact
// remove-up-then-add-down delta between the two walk-consecutive
// deployments. The tree structure only decides which deployments end up
// adjacent; correctness of every step is DeploymentDelta's contract.
func buildForestPlan(cm *costModel) *chainPlan {
	deps := cm.deps
	k := len(deps)
	p := &chainPlan{parentOf: make([]int, k)}
	inTree := make([]bool, k)
	best := make([]int64, k) // smallest known attachment key
	parent := make([]int, k) // -1: attach to the virtual root (from scratch)
	children := make([][]int, k)
	var roots []int
	for i := range best {
		best[i] = math.MaxInt64
		parent[i] = -1
	}
	for picked := 0; picked < k; picked++ {
		v := -1
		for i := 0; i < k; i++ {
			if inTree[i] {
				continue
			}
			if v < 0 || best[i] < best[v] ||
				best[i] == math.MaxInt64 && best[v] == math.MaxInt64 && depSize(deps[i].Dep) < depSize(deps[v].Dep) {
				v = i
			}
		}
		inTree[v] = true
		if parent[v] >= 0 && cm.step(parent[v], v) >= cm.scratch {
			parent[v] = -1
		}
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
			if c := core.DeploymentDeltaVolume(cm.g, deps[v].Dep, deps[w].Dep); c < best[w] &&
				cm.expected(c, deps[v].Dep, deps[w].Dep) < cm.scratch {
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
