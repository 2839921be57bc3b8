package core

import (
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// These tests pin the slab/arena contract of the engine core: after
// warm-up (growable queues at their high-water marks), the steady-state
// hot paths — from-scratch runs, incremental delta steps in both
// directions, and the partitioner — allocate nothing per run. The race
// detector's instrumentation allocates, so the assertions only run with
// it off; CI's dedicated zero-alloc job covers that configuration.

func zeroAllocFixture(t *testing.T) (*asgraph.Graph, *Deployment) {
	t.Helper()
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 1})
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 3 {
		full.Add(asgraph.AS(v))
	}
	return g, &Deployment{Full: full}
}

func assertZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
		t.Errorf("%s: %.1f allocs per run in steady state, want 0", what, allocs)
	}
}

func TestEngineRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, dep := zeroAllocFixture(t)
	e := NewEngine(g, policy.Sec2nd)
	// Warm-up: visit every (d, m) pair the measured loop visits, so the
	// bucket queues and fixed list reach their high-water marks first.
	for i := 0; i < 24; i++ {
		e.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100), dep)
	}
	i := 0
	assertZeroAllocs(t, "Engine.Run", func() {
		e.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100), dep)
		i++
	})
}

// TestEngineSwitchZeroAllocs: one engine serving every model and two
// graphs in turn — what a pooled sweep worker does — allocates nothing
// once each stage plan has been compiled and the queues are warm.
func TestEngineSwitchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, _ := zeroAllocFixture(t)
	g2, _ := topogen.MustGenerate(topogen.Params{N: g.N(), Seed: 2})
	graphs := []*asgraph.Graph{g, g2}
	// The destinations the hops visit (10..17) deploy too: a step whose
	// destination stays outside S is a security-free no-op, and this test
	// is about the delta pass.
	added := []asgraph.AS{5, 40, 200, 10, 11, 12, 13, 14, 15, 16, 17}
	dep := &Deployment{Full: asgraph.SetOf(g.N(), added...)}
	e := NewEngine(g, policy.Sec1st)
	i := 0
	hop := func() {
		e.Rebind(graphs[i%2])
		e.SetModel(policy.Models[i%len(policy.Models)])
		o := e.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100), nil)
		e.RunDelta(o, added, nil, dep, nil)
		i++
	}
	for i < 48 {
		hop()
	}
	assertZeroAllocs(t, "Rebind+SetModel+Run+RunDelta", hop)
}

func TestEngineRunDeltaZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, dep := zeroAllocFixture(t)
	// Ping-pong one non-stub in and out of the deployment: the forward
	// step exercises the addition path, the reverse step the removal
	// path with its secure reverse-reachability walk.
	x := asgraph.NonStubs(g)[0]
	if dep.Full.Has(x) {
		dep.Full.Remove(x)
	}
	grown := &Deployment{Full: dep.Full.Clone()}
	grown.Full.Add(x)
	delta := []asgraph.AS{x}
	d, m := asgraph.AS(12), asgraph.AS(100) // d ∈ dep: both steps do stage work

	e := NewEngine(g, policy.Sec2nd)
	prev := e.Run(d, m, dep)
	prev = e.RunDelta(prev, delta, nil, grown, nil)
	prev = e.RunDelta(prev, nil, delta, dep, nil)
	atGrown := false
	assertZeroAllocs(t, "Engine.RunDelta", func() {
		if atGrown {
			prev = e.RunDelta(prev, nil, delta, dep, nil)
		} else {
			prev = e.RunDelta(prev, delta, nil, grown, nil)
		}
		atGrown = !atGrown
	})
}

// TestSecurityFreeZeroAllocs: the sweep asks the predicate once per chain
// head and rides RunDelta's short-circuit across every free step of a
// chain, so neither may allocate — including the baseline capture the
// predicate makes under a non-nil deployment.
func TestSecurityFreeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, dep := zeroAllocFixture(t)
	grown := &Deployment{Full: dep.Full.Clone()}
	grown.Full.Add(asgraph.NonStubs(g)[0])
	d, m := asgraph.AS(10), asgraph.AS(100) // d ∉ dep
	e := NewEngine(g, policy.Sec2nd)
	atk := PathPadding{Hops: 2}
	prev := e.RunAttack(d, m, dep, atk)
	steps := []*Deployment{dep, grown, nil}
	var added, removed [3][]asgraph.AS
	for i := range steps {
		added[i], removed[i] = DeploymentDelta(steps[i], steps[(i+1)%3])
	}
	i := 0
	assertZeroAllocs(t, "SecurityFree + free RunDelta", func() {
		next := steps[(i+1)%3]
		if !e.SecurityFree(d, m, next, atk) || e.SecurityFree(12, m, dep, atk) {
			t.Fatal("predicate is wrong on the fixture")
		}
		if got := e.RunDelta(prev, added[i%3], removed[i%3], next, atk); got != prev {
			t.Fatal("a security-free step did not return prev")
		}
		i++
	})
}

func TestPartitionerRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	g, _ := zeroAllocFixture(t)
	p := NewPartitioner(g, policy.Standard)
	for i := 0; i < 12; i++ {
		p.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100))
	}
	i := 0
	assertZeroAllocs(t, "Partitioner.Run", func() {
		p.Run(asgraph.AS(i%8+10), asgraph.AS(i%12+100))
		i++
	})
}
