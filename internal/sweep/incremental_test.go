package sweep

import (
	"bytes"
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

// TestNestedChainPlan covers the legacy greedy nested-chain cover on
// the axis shapes it was built for. buildChainPlan still returns this
// exact layout whenever the signed-delta forest is not strictly cheaper,
// so these expectations double as the layout-compat contract for every
// pre-forest chain-major checkpoint.
func TestNestedChainPlan(t *testing.T) {
	dep := func(full ...asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(64, full...)}
	}
	simplex := func(full []asgraph.AS, sx ...asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(64, full...), Simplex: asgraph.SetOf(64, sx...)}
	}

	// Rollout shape: baseline, nested full steps interleaved with
	// nested simplex variants — two chains, baseline heading the first.
	deps := []Deployment{
		{Name: "baseline"},
		{Name: "s0", Dep: dep(1, 2, 10, 11)},
		{Name: "s0x", Dep: simplex([]asgraph.AS{1, 2}, 10, 11)},
		{Name: "s1", Dep: dep(1, 2, 3, 10, 11, 12)},
		{Name: "s1x", Dep: simplex([]asgraph.AS{1, 2, 3}, 10, 11, 12)},
	}
	p := buildNestedChainPlan(deps)
	wantChainNames(t, deps, p, [][]string{{"baseline", "s0", "s1"}, {"s0x", "s1x"}})
	// The delta of s1 over s0 is exactly the gained members.
	s1 := p.chains[0][2]
	if len(s1.added) != 2 || s1.added[0] != 3 || s1.added[1] != 12 {
		t.Errorf("s1 chain step added = %v, want [3 12]", s1.added)
	}

	// A subset-first axis (the SecureDestDeltas shape, declared superset
	// first) still chains: declaration order does not matter.
	p2 := buildNestedChainPlan([]Deployment{{Name: "with", Dep: dep(1, 2, 3)}, {Name: "without"}})
	if len(p2.chains) != 1 || p2.chains[0][0].si != 1 || p2.chains[0][1].si != 0 {
		t.Errorf("superset-first axis did not chain smallest-first: %+v", p2.chains)
	}

	// Incomparable deployments stay singleton chains under the nested
	// planner — linking them is exactly what the forest is for.
	p3 := buildNestedChainPlan([]Deployment{{Name: "a", Dep: dep(1)}, {Name: "b", Dep: dep(2)}})
	if len(p3.chains) != 2 {
		t.Errorf("incomparable axis built %d chains, want 2", len(p3.chains))
	}
}

// TestForestChainPlan pins the signed-delta forest on the axis shapes
// the nested planner covered poorly, and the tie rule that keeps nested
// axes on their historical layout. The exact walk orders asserted here
// are load-bearing: distributed workers recompute the plan independently
// and must agree bit for bit.
func TestForestChainPlan(t *testing.T) {
	g := planTestGraph(64)
	dep := func(full ...asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(64, full...)}
	}
	simplex := func(full []asgraph.AS, sx ...asgraph.AS) *core.Deployment {
		return &core.Deployment{Full: asgraph.SetOf(64, full...), Simplex: asgraph.SetOf(64, sx...)}
	}

	// The rollout shape that cost the nested planner a second
	// from-scratch head: the forest links the simplex variants to their
	// full-step siblings by remove-then-add deltas, so the whole axis is
	// one walk with a single head.
	deps := []Deployment{
		{Name: "baseline"},
		{Name: "s0", Dep: dep(1, 2, 10, 11)},
		{Name: "s0x", Dep: simplex([]asgraph.AS{1, 2}, 10, 11)},
		{Name: "s1", Dep: dep(1, 2, 3, 10, 11, 12)},
		{Name: "s1x", Dep: simplex([]asgraph.AS{1, 2, 3}, 10, 11, 12)},
	}
	p := buildChainPlan(deps, g)
	if !p.forest {
		t.Fatalf("rollout-with-variants axis kept the nested plan: %v", chainNames(deps, p))
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
	if !p2.forest || len(p2.chains) != 1 {
		t.Fatalf("incomparable axis: forest=%v chains=%v, want one forest walk", p2.forest, chainNames(deps2, p2))
	}
	step := p2.chains[0][1]
	if len(step.added) != 1 || len(step.removed) != 1 {
		t.Errorf("incomparable step delta = +%v -%v, want one added and one removed", step.added, step.removed)
	}
	checkChainPlanInvariants(t, deps2, p2, g)

	// A purely nested axis prices identically under both planners, and
	// the tie goes to the nested plan: its layout and fingerprint are
	// what existing chain-major checkpoints were written under.
	deps3 := []Deployment{
		{Name: "baseline"},
		{Name: "s", Dep: dep(1, 2)},
		{Name: "t", Dep: dep(1, 2, 3)},
	}
	p3 := buildChainPlan(deps3, g)
	if p3.forest {
		t.Errorf("purely nested axis switched to the forest layout")
	}
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
// an arbitrary axis, nested and forest plans alike: every deployment
// appears in exactly one chain position, heads carry no delta and no
// tree parent, every other step's tree parent walks before it, and
// every step's recorded (added, removed) pair is the exact signed delta
// from its walk predecessor — the property RunDelta's correctness rides
// on.
// Nested plans must additionally never remove, and every forest tree
// edge must price strictly below a from-scratch run under the planner's
// cost model (otherwise attaching to the virtual root was cheaper and
// the forest is not minimal).
func checkChainPlanInvariants(t *testing.T, deps []Deployment, p *chainPlan, g *asgraph.Graph) {
	t.Helper()
	scratch := fromScratchCost(g)
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
			if !p.forest && len(removed) != 0 {
				t.Errorf("chain %d is not nested at %q → %q: removed %v",
					ci, deps[ch[pos-1].si].Name, deps[step.si].Name, removed)
			}
			par := p.parentOf[step.si]
			if par < 0 || par >= len(deps) {
				t.Errorf("non-head %q has tree parent %d", deps[step.si].Name, par)
				continue
			}
			if !slices.ContainsFunc(ch[:pos], func(s chainStep) bool { return s.si == par }) {
				t.Errorf("tree parent of %q is not an earlier step of its own walk", deps[step.si].Name)
			}
			if p.forest {
				v := core.DeploymentDeltaVolume(g, deps[par].Dep, deps[step.si].Dep)
				if c := deltaStepCost(v, scratch); c >= scratch {
					t.Errorf("forest tree edge %q → %q prices at %d, not strictly below the from-scratch calibration %d",
						deps[par].Name, deps[step.si].Name, c, scratch)
				}
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

// TestChainPlanForestProperty is the planner's property test: on
// randomized axes — mixing nested prefixes, simplex variants,
// duplicates, and incomparable sets — whichever plan buildChainPlan
// selects satisfies the forest invariants (every deployment covered
// exactly once, exact walk-predecessor deltas, tree edges strictly
// below the from-scratch calibration), the nested planner alone still
// emits only nested chains, and the forest never prices above the
// nested cover it competes with.
func TestChainPlanForestProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 128
	g := planTestGraph(n)
	for trial := 0; trial < 200; trial++ {
		nDeps := 1 + rng.Intn(9)
		deps := make([]Deployment, nDeps)
		// Grow a few independent membership lineages; each deployment
		// either extends a random previous one (nesting), duplicates
		// it, or starts fresh (incomparable).
		for i := range deps {
			full, simplex := asgraph.NewSet(n), asgraph.NewSet(n)
			switch {
			case i > 0 && rng.Intn(3) == 0: // duplicate
				src := deps[rng.Intn(i)].Dep
				if src != nil {
					full, simplex = src.Full.Clone(), src.Simplex.Clone()
				}
			case i > 0 && rng.Intn(2) == 0: // extend
				src := deps[rng.Intn(i)].Dep
				if src != nil {
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
				for k := 0; k < rng.Intn(8); k++ {
					full.Add(asgraph.AS(rng.Intn(n)))
				}
			}
			deps[i] = Deployment{
				Name: fmt.Sprintf("d%d", i),
				Dep:  &core.Deployment{Full: full, Simplex: simplex},
			}
			if rng.Intn(8) == 0 {
				deps[i].Dep = nil // the occasional baseline
			}
		}
		picked := buildChainPlan(deps, g)
		checkChainPlanInvariants(t, deps, picked, g)
		nested := buildNestedChainPlan(deps)
		checkChainPlanInvariants(t, deps, nested, g)
		scratch := fromScratchCost(g)
		nested.price(g, scratch)
		if picked.predictedVol > nested.predictedVol {
			t.Errorf("trial %d: selected plan prices at %d, above the nested cover's %d",
				trial, picked.predictedVol, nested.predictedVol)
		}
		if t.Failed() {
			t.Fatalf("trial %d failed with axis %+v", trial, deps)
		}
	}
}

// TestIncrementalEquivalenceMixedChains: the incremental scheduler on a
// deliberately messy axis (duplicated sizes, incomparable deployments,
// chains, and an empty-delta pair) matches the default scheduling
// exactly, flat and sharded.
func TestIncrementalEquivalenceMixedChains(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 300, Seed: 19})
	n := g.N()
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(n), 8, 10)
	evens, odds, low := asgraph.NewSet(n), asgraph.NewSet(n), asgraph.NewSet(n)
	for v := 0; v < n; v++ {
		if v%2 == 0 {
			evens.Add(asgraph.AS(v))
		} else {
			odds.Add(asgraph.AS(v))
		}
		if v < n/3 {
			low.Add(asgraph.AS(v))
		}
	}
	grid := func(mode IncrementalMode) *Grid {
		return &Grid{
			Deployments: []Deployment{
				{Name: "baseline"},
				{Name: "evens", Dep: &core.Deployment{Full: evens}},
				{Name: "odds", Dep: &core.Deployment{Full: odds}},
				{Name: "low", Dep: &core.Deployment{Full: low}},
				{Name: "low2", Dep: &core.Deployment{Full: low.Clone()}}, // empty delta over low
			},
			Attackers:    M,
			Destinations: D,
			PerDest:      true,
			Incremental:  mode,
			Workers:      4,
		}
	}
	var want bytes.Buffer
	if err := mustEvaluate(grid(IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	var flat bytes.Buffer
	if err := mustEvaluate(grid(IncrementalAuto), g).WriteJSON(&flat); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat.Bytes(), want.Bytes()) {
		t.Error("incremental evaluation diverges on the mixed axis")
	}
	res, err := evaluateSharded(context.Background(), grid(IncrementalAuto), g, ShardOptions{ShardSize: 11})
	if err != nil {
		t.Fatal(err)
	}
	var sharded bytes.Buffer
	if err := res.WriteJSON(&sharded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sharded.Bytes(), want.Bytes()) {
		t.Error("incremental sharded evaluation diverges on the mixed axis")
	}
}

// TestShardedCancelSinkNeverObservesLatePartial is the cancellation
// contract, run with and without the incremental scheduler (and under
// -race in CI): once ctx.Err() is set — here by the sink itself — no
// further partial reaches the sink or the checkpoint; a resumed run
// (fresh RunDelta chains over the same engines' cell space) starts
// clean and lands on the uninterrupted bytes exactly.
func TestShardedCancelSinkNeverObservesLatePartial(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 250, Seed: 13})
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 10, 20)
	nested := asgraph.SetOf(g.N(), asgraph.NonStubs(g)...)
	for _, incremental := range []IncrementalMode{IncrementalOff, IncrementalAuto} {
		grid := func() *Grid {
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
		var want bytes.Buffer
		if err := mustEvaluate(grid(), g).WriteJSON(&want); err != nil {
			t.Fatal(err)
		}

		// Single-cell shards maximize the cancel window: a worker that
		// passed its one ctx check before the cancel still finishes its
		// cell and tries to deliver.
		ckpt := filepath.Join(t.TempDir(), "cancel.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		var calls, late atomic.Int32
		res, err := evaluateSharded(ctx, grid(), g, ShardOptions{
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

		res2, err := evaluateSharded(context.Background(), grid(), g, ShardOptions{
			ShardSize:  1,
			Checkpoint: ckpt,
			Resume:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := res2.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("incremental=%v: resumed result diverges from the uninterrupted run", incremental)
		}
	}
}
