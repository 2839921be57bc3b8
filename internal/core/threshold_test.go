package core

import (
	"math"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// peerRing builds an n-AS ring of peer links: every AS has degree
// exactly 2, so the graph's total adjacency volume is 2n and a dirty
// region of one AS plus its two neighbors has volume exactly 6 — the
// shapes that let the threshold tests hit their bounds with equality.
func peerRing(n int) *asgraph.Graph {
	b := asgraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddPeer(asgraph.AS(v), asgraph.AS((v+1)%n))
	}
	return b.MustBuild()
}

// ringOutcomes runs the one-AS rollout step on an n-ring under the given
// threshold configuration and reports the delta result plus whether the
// incremental path fell back to the from-scratch run.
func ringOutcomes(t *testing.T, n int, frac float64) (*Outcome, bool) {
	t.Helper()
	g := peerRing(n)
	d, m := asgraph.AS(0), asgraph.AS(n/2)
	base := &Deployment{Full: asgraph.SetOf(n, d)}
	joined := asgraph.AS(2)
	next := &Deployment{Full: asgraph.SetOf(n, d, joined)}
	e := NewEngine(g, policy.Sec2nd, WithDeltaThreshold(frac))
	prev := e.Run(d, m, base)
	out := e.RunDelta(prev, []asgraph.AS{joined}, nil, next, nil)
	return out.Clone(), e.deltaFallbacks > 0
}

// ringReference is the from-scratch outcome the delta step must equal.
func ringReference(n int) *Outcome {
	g := peerRing(n)
	d, m := asgraph.AS(0), asgraph.AS(n/2)
	next := &Deployment{Full: asgraph.SetOf(n, d, asgraph.AS(2))}
	return NewEngine(g, policy.Sec2nd).Run(d, m, next).Clone()
}

func assertOutcomeEqual(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	if got.Dst != want.Dst || got.Attacker != want.Attacker {
		t.Fatalf("%s: scenario mismatch (dst %d/%d attacker %d/%d)",
			label, got.Dst, want.Dst, got.Attacker, want.Attacker)
	}
	for v := range want.Class {
		if got.Class[v] != want.Class[v] || got.Len[v] != want.Len[v] ||
			got.Secure[v] != want.Secure[v] || got.Label[v] != want.Label[v] ||
			got.Next[v] != want.Next[v] {
			t.Fatalf("%s: AS%d differs: got (%v,%d,%v,%v,%d) want (%v,%d,%v,%v,%d)",
				label, v,
				got.Class[v], got.Len[v], got.Secure[v], got.Label[v], got.Next[v],
				want.Class[v], want.Len[v], want.Secure[v], want.Label[v], want.Next[v])
		}
	}
}

// TestDeltaThresholdEdgeVolumeBoundary pins overDeltaThreshold exactly
// at the edge-volume boundary. On a 6-ring (total volume 12) a one-AS
// rollout dirties the AS and its two neighbors — volume 6, exactly half
// — so frac = 0.5 must fall back (the bound is >=, dirty volume equal
// to the budget is over it) while the next representable fraction above
// must stay incremental. Both paths must produce the identical outcome,
// byte for byte, so drift in the comparison direction could only ever
// change speed, never results.
func TestDeltaThresholdEdgeVolumeBoundary(t *testing.T) {
	want := ringReference(6)

	atBoundary, fellBack := ringOutcomes(t, 6, 0.5)
	if !fellBack {
		t.Errorf("dirty volume == frac*totalVol must fall back (bound is >=), but the incremental path ran")
	}
	assertOutcomeEqual(t, "fallback path", atBoundary, want)

	above := math.Nextafter(0.5, 1)
	justUnder, fellBack := ringOutcomes(t, 6, above)
	if fellBack {
		t.Errorf("dirty volume just under frac*totalVol must stay incremental, but fell back")
	}
	assertOutcomeEqual(t, "incremental path", justUnder, want)
}
