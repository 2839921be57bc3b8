package sweep

import (
	"fmt"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// chainedGrid is a rollout-shaped axis whose deployment chain the
// scheduler orders chain-major.
func chainedGrid(g *asgraph.Graph, mode IncrementalMode) *Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	nonStubs := asgraph.NonStubs(g)
	deployments := []Deployment{{Name: "baseline"}}
	for _, k := range []int{4, 10, 20} {
		deployments = append(deployments, Deployment{
			Name: fmt.Sprintf("step%d", k),
			Dep:  &core.Deployment{Full: asgraph.SetOf(g.N(), nonStubs[:k]...)},
		})
	}
	return &Grid{
		Deployments:  deployments,
		Attackers:    M,
		Destinations: D,
		Incremental:  mode,
		Workers:      4,
	}
}

// scheduledCell decodes scheduled position p to its raw cell index the
// way the walk does: block, group, chain position.
func scheduledCell(s *schedule, p int) int {
	ax := s.ax
	ci := s.chainAt(p)
	ch := s.plan.chains[ci]
	r := p - s.blockStart[ci]
	gi, pos := r/len(ch), r%len(ch)
	mi := gi / (ax.nd * ax.na)
	rem := gi % (ax.nd * ax.na)
	di, ai := rem/ax.na, rem%ax.na
	return ((ch[pos].si*ax.nm+mi)*ax.nd+di)*ax.na + ai
}

// TestScheduleShapes pins the scheduler's structural contract on real
// grids: every schedule lays out as a permutation of the cell space the
// loop can cut anywhere (checkScheduleLayout), and on both identity
// cases (IncrementalOff, and an IncrementalAuto axis the planner cannot
// link, declared out of size order) it is the trivial one: position p is
// cell p. An axis that cannot chain at all (one deployment) fingerprints
// the same under both modes, as before the scheduler existed, so old
// checkpoints of such grids resume under the default.
func TestScheduleShapes(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	for _, tc := range []struct {
		name     string
		grid     *Grid
		identity bool
	}{
		{"off", chainedGrid(g, IncrementalOff), true},
		{"auto-unlinkable", unlinkableGrid(g, IncrementalAuto), true},
		{"auto-chained", chainedGrid(g, IncrementalAuto), false},
	} {
		s := mustPrepare(tc.grid, g).sched
		if s.identity() != tc.identity {
			t.Fatalf("%s: identity = %v, want %v", tc.name, s.identity(), tc.identity)
		}
		checkScheduleLayout(t, s)
		for p := 0; tc.identity && p < s.ax.cells; p++ {
			if cell := scheduledCell(s, p); cell != p {
				t.Fatalf("%s: identity order maps position %d to cell %d", tc.name, p, cell)
			}
		}
	}
	fp := map[IncrementalMode]string{}
	for _, mode := range []IncrementalMode{IncrementalOff, IncrementalAuto} {
		gr := chainedGrid(g, mode)
		gr.Deployments = gr.Deployments[1:2]
		fp[mode] = mustPrepare(gr, g).fp
	}
	if fp[IncrementalOff] != fp[IncrementalAuto] {
		t.Errorf("chain-free axis fingerprints differ across modes: %v", fp)
	}
}
