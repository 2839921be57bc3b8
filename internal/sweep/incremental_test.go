package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// planTestGraph builds a small deterministic star topology — AS 0
// provides every other AS — for planner tests: every non-hub member has
// degree 1, so delta volumes count members directly while the
// from-scratch calibration (the threshold fraction of the total
// edge-volume 2(n−1)) dwarfs any few-member delta.
func planTestGraph(n int) *asgraph.Graph {
	b := asgraph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddProviderCustomer(0, asgraph.AS(v))
	}
	return b.MustBuild()
}

// chainNames renders a plan's walks as deployment-name slices.
func chainNames(deps []Deployment, p *chainPlan) [][]string {
	var names [][]string
	for _, ch := range p.chains {
		var ns []string
		for _, step := range ch {
			ns = append(ns, deps[step.si].Name)
		}
		names = append(names, ns)
	}
	return names
}

func wantChainNames(t *testing.T, deps []Deployment, p *chainPlan, want [][]string) {
	t.Helper()
	names := chainNames(deps, p)
	if len(names) != len(want) {
		t.Fatalf("chains = %v, want %v", names, want)
	}
	for ci := range want {
		if len(names[ci]) != len(want[ci]) {
			t.Fatalf("chains = %v, want %v", names, want)
		}
		for k := range want[ci] {
			if names[ci][k] != want[ci][k] {
				t.Fatalf("chains = %v, want %v", names, want)
			}
		}
	}
}

// removesAny reports whether some walk step of p removes an AS: a
// signed-delta step, which no superset chain takes.
func removesAny(p *chainPlan) bool {
	for _, ch := range p.chains {
		for _, step := range ch {
			if len(step.removed) > 0 {
				return true
			}
		}
	}
	return false
}

// TestNestedChainPlan covers the planner's superset-chain rule: an axis
// whose deployments, sorted by size, each contain the one before walks
// in that order, whatever order it is declared in, with grow-only
// deltas; an axis that is not such a chain is left to the forest.
func TestNestedChainPlan(t *testing.T) {
	dep := func(full ...asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(64, full...)}
	}
	simplex := func(full []asgraph.AS, sx ...asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(64, full...), Simplex: asgraph.SetOf(64, sx...)}
	}

	// Rollout shape, declared out of order: baseline, a simplex step,
	// then nested full steps that promote its simplex members.
	deps := []Deployment{
		{Name: "s1", Dep: dep(1, 2, 3, 10, 11, 12)},
		{Name: "baseline"},
		{Name: "s0x", Dep: simplex([]asgraph.AS{1, 2}, 10)},
		{Name: "s0", Dep: dep(1, 2, 10, 11)},
	}
	p := supersetChainPlan(deps)
	if p == nil {
		t.Fatal("superset-chain axis not walked as a chain")
	}
	wantChainNames(t, deps, p, [][]string{{"baseline", "s0x", "s0", "s1"}})
	// The delta of s1 over s0 is exactly the gained members.
	if s1 := p.chains[0][3]; !sameAS(s1.added, []asgraph.AS{3, 12}) || len(s1.removed) != 0 {
		t.Errorf("s1 chain step = +%v -%v, want +[3 12]", s1.added, s1.removed)
	}

	// A subset-first axis (the SecureDestDeltas shape, declared superset
	// first) still chains: declaration order does not matter.
	p2 := supersetChainPlan([]Deployment{{Name: "with", Dep: dep(1, 2, 3)}, {Name: "without"}})
	if p2 == nil || len(p2.chains) != 1 || p2.chains[0][0].si != 1 || p2.chains[0][1].si != 0 {
		t.Errorf("superset-first axis did not chain smallest-first: %+v", p2)
	}

	// Incomparable deployments, and a simplex variant beside its full
	// step, are not superset chains.
	if p3 := supersetChainPlan([]Deployment{{Name: "a", Dep: dep(1)}, {Name: "b", Dep: dep(2)}}); p3 != nil {
		t.Errorf("incomparable axis walked as a chain: %+v", p3.chains)
	}
	if p4 := supersetChainPlan([]Deployment{{Name: "s0", Dep: dep(1, 2, 10, 11)}, {Name: "s0x", Dep: simplex([]asgraph.AS{1, 2}, 10, 11)}}); p4 != nil {
		t.Errorf("full step and its simplex variant walked as a chain: %+v", p4.chains)
	}
}

// TestForestChainPlan pins the signed-delta forest on axes that are not
// superset chains, and the superset chain's own walk. The exact walk
// orders asserted here are load-bearing: distributed workers recompute
// the plan independently and must agree bit for bit.
func TestForestChainPlan(t *testing.T) {
	g := planTestGraph(64)
	dep := func(full ...asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(64, full...)}
	}
	simplex := func(full []asgraph.AS, sx ...asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(64, full...), Simplex: asgraph.SetOf(64, sx...)}
	}

	// A rollout with simplex variants, which grow-only chains walk with
	// two from-scratch heads: the forest links the simplex variants to
	// their full-step siblings by remove-then-add deltas, so the whole
	// axis is one walk with a single head.
	deps := []Deployment{
		{Name: "baseline"},
		{Name: "s0", Dep: dep(1, 2, 10, 11)},
		{Name: "s0x", Dep: simplex([]asgraph.AS{1, 2}, 10, 11)},
		{Name: "s1", Dep: dep(1, 2, 3, 10, 11, 12)},
		{Name: "s1x", Dep: simplex([]asgraph.AS{1, 2, 3}, 10, 11, 12)},
	}
	p := buildChainPlan(deps, g)
	if !removesAny(p) {
		t.Fatalf("rollout-with-variants axis walks no removal: %v", chainNames(deps, p))
	}
	wantChainNames(t, deps, p, [][]string{{"baseline", "s0", "s0x", "s1x", "s1"}})
	if p.heads != 1 || p.deltaEdges != 4 {
		t.Errorf("forest plan heads=%d deltaEdges=%d, want 1 and 4", p.heads, p.deltaEdges)
	}
	checkChainPlanInvariants(t, deps, p, g)

	// A pairwise-incomparable axis — the EarlyAdopters/Fig-8 shape in
	// miniature — becomes one walk whose steps carry removals.
	deps2 := []Deployment{
		{Name: "a", Dep: dep(1)},
		{Name: "b", Dep: dep(2)},
		{Name: "c", Dep: dep(3)},
	}
	p2 := buildChainPlan(deps2, g)
	if len(p2.chains) != 1 {
		t.Fatalf("incomparable axis: chains=%v, want one forest walk", chainNames(deps2, p2))
	}
	step := p2.chains[0][1]
	if len(step.added) != 1 || len(step.removed) != 1 {
		t.Errorf("incomparable step delta = +%v -%v, want one added and one removed", step.added, step.removed)
	}
	checkChainPlanInvariants(t, deps2, p2, g)

	// A purely nested axis walks grow-only, smallest first.
	deps3 := []Deployment{
		{Name: "t", Dep: dep(1, 2, 3)},
		{Name: "baseline"},
		{Name: "s", Dep: dep(1, 2)},
	}
	p3 := buildChainPlan(deps3, g)
	wantChainNames(t, deps3, p3, [][]string{{"baseline", "s", "t"}})
	checkChainPlanInvariants(t, deps3, p3, g)
}

// sameAS reports whether two member lists are identical.
func sameAS(a, b []asgraph.AS) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkChainPlanInvariants asserts the planner's structural contract on
// an arbitrary axis: every deployment appears in exactly one chain
// position, heads carry no delta and no tree parent, every other step's
// tree parent walks before it, and every step's recorded (added,
// removed) pair is the exact signed delta from its walk predecessor —
// the property RunDelta's correctness rides on. Every walk step must
// price strictly below a from-scratch head under the planner's cost
// model (costModel.walkStep: the planner plans no step it predicts to
// cost a run or more), and so must every tree edge the walk does not
// take directly (otherwise attaching to the virtual root was cheaper and
// the forest is not minimal).
func checkChainPlanInvariants(t *testing.T, deps []Deployment, p *chainPlan, g *asgraph.Graph) {
	t.Helper()
	cm := newCostModel(deps, g)
	seen := make([]bool, len(deps))
	for ci, ch := range p.chains {
		if len(ch) == 0 {
			t.Fatalf("chain %d is empty", ci)
		}
		if len(ch[0].added) != 0 || len(ch[0].removed) != 0 {
			t.Errorf("chain %d head carries a delta: +%v -%v", ci, ch[0].added, ch[0].removed)
		}
		for pos, step := range ch {
			if step.si < 0 || step.si >= len(deps) {
				t.Fatalf("chain %d step %d: si %d out of range", ci, pos, step.si)
			}
			if seen[step.si] {
				t.Fatalf("deployment %q appears in more than one chain position", deps[step.si].Name)
			}
			seen[step.si] = true
			if pos == 0 {
				if p.parentOf[step.si] != -1 {
					t.Errorf("walk head %q has tree parent %d, want -1", deps[step.si].Name, p.parentOf[step.si])
				}
				continue
			}
			added, removed := core.DeploymentDelta(deps[ch[pos-1].si].Dep, deps[step.si].Dep)
			if !sameAS(added, step.added) || !sameAS(removed, step.removed) {
				t.Errorf("chain %d step %q: recorded delta +%v -%v, want +%v -%v",
					ci, deps[step.si].Name, step.added, step.removed, added, removed)
			}
			par := p.parentOf[step.si]
			if par < 0 || par >= len(deps) {
				t.Errorf("non-head %q has tree parent %d", deps[step.si].Name, par)
				continue
			}
			if !slices.ContainsFunc(ch[:pos], func(s chainStep) bool { return s.si == par }) {
				t.Errorf("tree parent of %q is not an earlier step of its own walk", deps[step.si].Name)
			}
			if c := cm.walkStep(ch, pos, len(p.chains)); c >= cm.scratch {
				t.Errorf("chain %d step %q → %q prices at %d, not strictly below the from-scratch price %d",
					ci, deps[ch[pos-1].si].Name, deps[step.si].Name, c, cm.scratch)
			}
			if c := cm.step(par, step.si); par != ch[pos-1].si && c >= cm.scratch {
				t.Errorf("tree edge %q → %q prices at %d, not strictly below the from-scratch price %d",
					deps[par].Name, deps[step.si].Name, c, cm.scratch)
			}
		}
	}
	for si, ok := range seen {
		if !ok {
			t.Errorf("deployment %q missing from every chain", deps[si].Name)
		}
	}
}

// TestChainPlanEdgeCases covers the axis shapes that historically broke
// schedulers: duplicated memberships under distinct names, the
// baseline-only and empty axes, and equal-membership deployments.
func TestChainPlanEdgeCases(t *testing.T) {
	dep := func(full ...asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(64, full...)}
	}

	g := planTestGraph(64)

	t.Run("empty-axis", func(t *testing.T) {
		p := buildChainPlan(nil, g)
		if len(p.chains) != 0 {
			t.Fatalf("empty axis built %d chains", len(p.chains))
		}
	})

	t.Run("baseline-only", func(t *testing.T) {
		deps := []Deployment{{Name: "baseline"}}
		p := buildChainPlan(deps, g)
		if len(p.chains) != 1 || len(p.chains[0]) != 1 || p.chains[0][0].si != 0 {
			t.Fatalf("baseline-only axis: chains = %+v, want one singleton", p.chains)
		}
		checkChainPlanInvariants(t, deps, p, g)
	})

	t.Run("duplicate-memberships", func(t *testing.T) {
		// Same member set under different names (and via distinct Set
		// values): each pair must chain with an empty delta, and every
		// deployment still lands in exactly one chain slot.
		deps := []Deployment{
			{Name: "a", Dep: dep(1, 2, 3)},
			{Name: "a-copy", Dep: dep(1, 2, 3)},
			{Name: "bigger", Dep: dep(1, 2, 3, 4)},
			{Name: "bigger-copy", Dep: dep(1, 2, 3, 4)},
		}
		p := buildChainPlan(deps, g)
		if len(p.chains) != 1 {
			t.Fatalf("duplicate-membership axis built %d chains, want 1", len(p.chains))
		}
		for pos, step := range p.chains[0][1:] {
			if deps[step.si].Name == "bigger" && len(step.added) != 1 {
				t.Errorf("step %d (%q): added = %v, want the single gained member", pos+1, deps[step.si].Name, step.added)
			}
			if deps[step.si].Name == "a-copy" && len(step.added) != 0 {
				t.Errorf("equal-membership step carries a delta: %v", step.added)
			}
		}
		checkChainPlanInvariants(t, deps, p, g)
	})

	t.Run("baseline-duplicates", func(t *testing.T) {
		// nil and empty-set deployments are equal-capability too.
		deps := []Deployment{
			{Name: "nil-baseline"},
			{Name: "empty-set", Dep: &core.Deployment{Full: asgraph.NewSet(64)}},
			{Name: "one", Dep: dep(5)},
		}
		p := buildChainPlan(deps, g)
		if len(p.chains) != 1 || len(p.chains[0]) != 3 {
			t.Fatalf("nil/empty baseline axis: chains = %+v, want one 3-chain", p.chains)
		}
		checkChainPlanInvariants(t, deps, p, g)
	})
}

// checkPlanProperties plans deps on g and asserts the planner's
// properties: the walk invariants (checkChainPlanInvariants), a price no
// higher than the singleton plan's, and — on an axis that is a superset
// chain in size order — the shortcut's plan equal to the one the forest
// builds for it, so skipping the forest's probes changes no walk. It
// reports whether the shortcut applied.
func checkPlanProperties(t *testing.T, deps []Deployment, g *asgraph.Graph) (p *chainPlan, chain bool) {
	t.Helper()
	p = buildChainPlan(deps, g)
	checkChainPlanInvariants(t, deps, p, g)
	cm := newCostModel(deps, g)
	if single := singletonChainPlan(len(deps), cm.scratch); p.predictedVol > single.predictedVol {
		t.Errorf("plan %v prices at %d, above the singleton plan's %d", chainNames(deps, p), p.predictedVol, single.predictedVol)
	}
	if supersetChainPlan(deps) == nil {
		return p, false
	}
	forest := buildForestPlan(cm)
	forest.leadBaseline(deps)
	forest.splitUnpriced(cm)
	forest.price(cm)
	if got, want := planPin(deps, p), planPin(deps, forest); got != want {
		t.Errorf("superset chain: the shortcut plans %s, the forest %s", got, want)
	}
	return p, true
}

// randomAxis draws a deployment axis of up to nine deployments over n
// ASes. A mixed axis grows a few independent membership lineages — each
// deployment extends a random previous one (nesting), duplicates it, or
// starts fresh (incomparable); a chain axis is a superset chain, each
// deployment the previous one, duplicated or grown by new members, Full
// or Simplex, declared in a shuffled order. Either has the occasional
// baseline.
func randomAxis(rng *rand.Rand, n int, chain bool) []Deployment {
	deps := make([]Deployment, 1+rng.Intn(9))
	full, simplex := asgraph.NewSet(n), asgraph.NewSet(n)
	for i := range deps {
		switch {
		case chain:
			full, simplex = full.Clone(), simplex.Clone()
			for k := 0; k < rng.Intn(6); k++ {
				if v := asgraph.AS(rng.Intn(n)); !full.Has(v) && !simplex.Has(v) {
					if rng.Intn(4) == 0 {
						simplex.Add(v)
					} else {
						full.Add(v)
					}
				}
			}
		case i > 0 && rng.Intn(3) == 0: // duplicate
			full, simplex = asgraph.NewSet(n), asgraph.NewSet(n)
			if src := deps[rng.Intn(i)].Dep; src != nil {
				full, simplex = src.Full.Clone(), src.Simplex.Clone()
			}
		case i > 0 && rng.Intn(2) == 0: // extend
			full, simplex = asgraph.NewSet(n), asgraph.NewSet(n)
			if src := deps[rng.Intn(i)].Dep; src != nil {
				full, simplex = src.Full.Clone(), src.Simplex.Clone()
			}
			for k := 0; k < 1+rng.Intn(5); k++ {
				v := asgraph.AS(rng.Intn(n))
				if rng.Intn(4) == 0 {
					simplex.Add(v)
				} else {
					full.Add(v)
				}
			}
		default: // fresh
			full, simplex = asgraph.NewSet(n), asgraph.NewSet(n)
			for k := 0; k < rng.Intn(8); k++ {
				full.Add(asgraph.AS(rng.Intn(n)))
			}
		}
		deps[i] = Deployment{Dep: &core.Deployment{Full: full, Simplex: simplex}}
		if rng.Intn(8) == 0 && (!chain || i == 0) {
			deps[i].Dep = nil // the occasional baseline
		}
	}
	if chain {
		rng.Shuffle(len(deps), func(a, b int) { deps[a], deps[b] = deps[b], deps[a] })
	}
	for i := range deps {
		deps[i].Name = fmt.Sprintf("d%d", i)
	}
	return deps
}

// TestChainPlanForestProperty is the planner's property test
// (checkPlanProperties) on randomized axes — mixing nested prefixes,
// simplex variants, duplicates, and incomparable sets — and on random
// superset chains, every one of which must take the shortcut.
func TestChainPlanForestProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 128
	g := planTestGraph(n)
	for trial := 0; trial < 400; trial++ {
		chain := trial >= 200
		deps := randomAxis(rng, n, chain)
		if _, took := checkPlanProperties(t, deps, g); chain && !took {
			t.Errorf("trial %d: a superset chain did not take the shortcut", trial)
		}
		if t.Failed() {
			t.Fatalf("trial %d failed with axis %+v", trial, deps)
		}
	}
}

// TestShardedCancelSinkNeverObservesLatePartial is the cancellation
// contract, run with and without the incremental scheduler (and under
// -race in CI): once ctx.Err() is set — here by the sink itself — no
// further partial reaches the sink or the checkpoint; a resumed run
// (fresh RunDelta chains over the same engines' cell space) starts
// clean and lands on the oracle's counts.
func TestShardedCancelSinkNeverObservesLatePartial(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 250, Seed: 13})
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 10, 20)
	nested := asgraph.SetOf(g.N(), asgraph.NonStubs(g)...)
	grid := func(incremental IncrementalMode) *Grid {
		return &Grid{
			Deployments: []Deployment{
				{Name: "baseline"},
				{Name: "nonstubs", Dep: &core.Deployment{Full: nested}},
			},
			Attackers:    M,
			Destinations: D,
			PerDest:      true,
			Incremental:  incremental,
			Workers:      4, // >1 even on single-core machines: the race needs concurrent deliveries
		}
	}
	o := newOracle(grid(IncrementalAuto), g)
	for _, incremental := range []IncrementalMode{IncrementalOff, IncrementalAuto} {
		// Single-cell shards maximize the cancel window: a worker that
		// passed its one ctx check before the cancel still finishes its
		// cell and tries to deliver.
		ckpt := filepath.Join(t.TempDir(), "cancel.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		var calls, late atomic.Int32
		res, err := evaluateSharded(ctx, grid(incremental), g, ShardOptions{
			ShardSize:  1,
			Checkpoint: ckpt,
			Sink: func(*ShardPartial) error {
				if ctx.Err() != nil {
					late.Add(1)
				}
				if calls.Add(1) == 64 {
					// Dwell before cancelling so the other workers have
					// finished their in-flight cells and parked on the
					// delivery mutex — the exact interleaving in which an
					// unsuppressed late partial would reach the sink.
					time.Sleep(5 * time.Millisecond)
					cancel()
				}
				return nil
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("incremental=%v: cancelled run returned (%v, %v), want (nil, context.Canceled)", incremental, res, err)
		}
		if late.Load() != 0 {
			t.Errorf("incremental=%v: sink observed %d partials after ctx.Err() was set", incremental, late.Load())
		}
		// The checkpoint holds exactly the shards whose sink ran: each
		// record is appended immediately before its sink call, under the
		// same suppression check.
		_, partials := readCheckpoint(t, ckpt)
		if len(partials) != int(calls.Load()) {
			t.Errorf("incremental=%v: checkpoint has %d records, sink ran %d times", incremental, len(partials), calls.Load())
		}

		res, err = evaluateSharded(context.Background(), grid(incremental), g, ShardOptions{
			ShardSize:  1,
			Checkpoint: ckpt,
			Resume:     true,
		})
		o.check(t, res, err)
	}
}
