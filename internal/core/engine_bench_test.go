package core

import (
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// BenchmarkEngineRun measures one routing-outcome computation on a
// 4000-AS topology — the unit cost every grid experiment pays per
// (attacker, destination) pair.
func BenchmarkEngineRun(b *testing.B) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 3 {
		full.Add(asgraph.AS(v))
	}
	dep := &Deployment{Full: full}
	e := NewEngine(g, policy.Sec2nd)
	// One warm-up run, so even -benchtime 1x measures the steady state
	// the arena contract is about, not first-run scratch growth.
	_ = e.Run(10, 200, dep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Run(asgraph.AS(i%64+10), asgraph.AS(i%97+200), dep)
	}
}

// BenchmarkEngineRunDelta measures one step of an incremental rollout
// chain on a 4000-AS topology — a single AS turning secure between
// consecutive runs — against the from-scratch run the delta replaces.
// It is the zoom lens for the ladder's sweep.walk_s rung on rollout,
// whose walk is mostly such steps; the delta side also reports the
// passes and the dirty edge-volume a step costs.
func BenchmarkEngineRunDelta(b *testing.B) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	n := g.N()
	nonStubs := asgraph.NonStubs(g)
	// A chain of deployments each one non-stub larger than the last.
	const chainLen = 64
	deps := make([]*Deployment, chainLen)
	added := make([][]asgraph.AS, chainLen)
	full := asgraph.NewSet(n)
	for v := 0; v < n; v += 3 {
		full.Add(asgraph.AS(v))
	}
	cand := len(nonStubs) - 1
	for i := 0; i < chainLen; i++ {
		// Skip candidates already secure so every measured step adds
		// exactly one AS — no free empty-delta iterations.
		for cand >= 0 && full.Has(nonStubs[cand]) {
			cand--
		}
		if cand < 0 {
			b.Fatal("ran out of insecure non-stubs for the chain")
		}
		a := nonStubs[cand]
		full.Add(a)
		added[i] = []asgraph.AS{a}
		deps[i] = &Deployment{Full: full.Clone()}
	}
	// AS18 deploys (18 ≡ 0 mod 3): a destination outside S would make
	// every step a security-free no-op and measure nothing.
	d, m := asgraph.AS(18), nonStubs[0]
	b.Run("from-scratch", func(b *testing.B) {
		e := NewEngine(g, policy.Sec2nd)
		_ = e.Run(d, m, deps[0]) // steady state even at -benchtime 1x
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.Run(d, m, deps[i%chainLen])
		}
	})
	b.Run("delta", func(b *testing.B) {
		e := NewEngine(g, policy.Sec2nd)
		prev := e.Run(d, m, deps[0])
		// Warm the delta scratch too, then rewind the chain so the
		// timed loop still walks it from the start.
		_ = e.RunDelta(prev, added[1], nil, deps[1], nil)
		prev = e.Run(d, m, deps[0])
		e.TakeCounters()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i%(chainLen-1) + 1
			if k == 1 {
				b.StopTimer()
				prev = e.Run(d, m, deps[0])
				b.StartTimer()
			}
			prev = e.RunDelta(prev, added[k], nil, deps[k], nil)
		}
		c := e.TakeCounters()
		b.ReportMetric(float64(c.Passes)/float64(b.N), "passes/op")
		b.ReportMetric(float64(c.DirtyVolume)/float64(b.N), "dirty-volume/op")
	})
}

// BenchmarkDeltaThreshold measures the delta-fallback bound on the
// workload it exists for: a one-stub-at-a-time rollout, the
// finest-grained chain the paper's figures imply. Securing one stub
// dirties only the stub and its providers, so the delta should stay
// incremental at every step: the edge-volume bound charges the dirty
// region by its adjacency size.
func BenchmarkDeltaThreshold(b *testing.B) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 4000, Seed: 1})
	n := g.N()
	var stubs []asgraph.AS
	for v := 0; v < n; v++ {
		if g.IsAnyStub(asgraph.AS(v)) {
			stubs = append(stubs, asgraph.AS(v))
		}
	}
	const chainLen = 256
	if len(stubs) < chainLen {
		b.Fatalf("fixture has only %d stubs", len(stubs))
	}
	deps := make([]*Deployment, chainLen)
	added := make([][]asgraph.AS, chainLen)
	d, m := asgraph.AS(17), asgraph.NonStubs(g)[0]
	// The destination deploys throughout: outside S every step would be
	// a security-free no-op, not a delta.
	full := asgraph.SetOf(n, d)
	for i := 0; i < chainLen; i++ {
		full.Add(stubs[i])
		added[i] = []asgraph.AS{stubs[i]}
		deps[i] = &Deployment{Full: full.Clone()}
	}
	b.Run("edge-volume", func(b *testing.B) {
		e := NewEngine(g, policy.Sec2nd)
		prev := e.Run(d, m, deps[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i%(chainLen-1) + 1
			if k == 1 {
				b.StopTimer()
				prev = e.Run(d, m, deps[0])
				b.StartTimer()
			}
			prev = e.RunDelta(prev, added[k], nil, deps[k], nil)
		}
		if e.counters.Fallbacks > 0 {
			b.Logf("%d of %d delta steps fell back", e.counters.Fallbacks, b.N)
		}
	})
}

// BenchmarkEngineRunSparse measures runs that touch only a small part of
// the graph: 100 disconnected 40-AS provider trees, attacks staying
// within one tree. The between-run reset pays O(touched) here, not
// O(n): this is the regime rollback's per-entry branch exists for.
func BenchmarkEngineRunSparse(b *testing.B) {
	const clusters, size = 100, 40
	g := forestGraph(clusters, size)
	full := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 3 {
		full.Add(asgraph.AS(v))
	}
	dep := &Deployment{Full: full}
	e := NewEngine(g, policy.Sec2nd)
	_ = e.Run(0, 1, dep) // steady state even at -benchtime 1x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := asgraph.AS(i % clusters * size)
		_ = e.Run(base, base+asgraph.AS(i%(size-1)+1), dep)
	}
}
