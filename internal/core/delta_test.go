package core

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// TestRunDeltaFallback: a delta touching most of the graph crosses the
// adaptive threshold and falls back to the from-scratch path — still
// exactly equal, and the engine stays healthy for further runs.
func TestRunDeltaFallback(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 300, Seed: 33})
	n := g.N()
	for _, model := range policy.Models {
		delta := NewEngine(g, model)
		scratch := NewEngine(g, model)
		prev := delta.Run(2, 7, nil)
		// Secure every even AS at once: the dirty set immediately
		// exceeds n/4.
		full := asgraph.NewSet(n)
		var added []asgraph.AS
		for v := 0; v < n; v += 2 {
			full.Add(asgraph.AS(v))
			added = append(added, asgraph.AS(v))
		}
		next := &Deployment{Full: full}
		got := delta.RunDelta(prev, added, nil, next, nil)
		want := scratch.Run(2, 7, next)
		if !outcomesEqual(got, want) {
			t.Fatalf("%v: fallback RunDelta diverges from from-scratch run", model)
		}
		// A subsequent small delta on the fallback result is exact too.
		added2 := []asgraph.AS{281, 47}
		next2 := &Deployment{Full: full.Clone()}
		next2.Full.Add(281)
		next2.Full.Add(47)
		got2 := delta.RunDelta(got, added2, nil, next2, nil)
		want2 := scratch.Run(2, 7, next2)
		if !outcomesEqual(got2, want2) {
			t.Fatalf("%v: post-fallback RunDelta diverges", model)
		}
	}
}

// condOriginAttack plants a helper origin only while the *destination*
// is still insecure — a deployment-dependent seeding, the hardest case
// for RunDelta: when the condition flips along a rollout the helper's
// root must *vanish*, even though the helper itself is nowhere near the
// added set and would otherwise stay pre-fixed from the previous fixed
// point.
type condOriginAttack struct{ helper asgraph.AS }

func (condOriginAttack) Name() string { return "cond-origin" }
func (a condOriginAttack) Seed(s *Seeder) {
	s.OriginateDest()
	s.AnnounceBogus(1)
	if !s.Dep.FullSecure(s.Dst) && a.helper != s.Dst && a.helper != s.Attacker {
		s.Originate(a.helper, 2, false, LabelDest)
	}
}

// TestRunDeltaVanishedRoot: a root present in prev but absent from the
// new seeding (deployment-dependent attacks) is recomputed as an
// ordinary AS, and its neighbors see the change — the mirror case of a
// changed origination.
func TestRunDeltaVanishedRoot(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 35})
	n := g.N()
	const d, m = 5, 9
	// A helper that is not adjacent to the destination, so the vanish
	// cannot be masked by the added set's own dirty neighborhood.
	var helper asgraph.AS = asgraph.None
	for _, v := range asgraph.NonStubs(g) {
		if v == d || v == m || g.Rel(v, d) != asgraph.RelNone {
			continue
		}
		helper = v
		break
	}
	if helper == asgraph.None {
		t.Fatal("fixture broken: no non-stub helper away from the destination")
	}
	atk := condOriginAttack{helper: helper}
	for _, model := range policy.Models {
		delta := NewEngine(g, model)
		scratch := NewEngine(g, model)
		prev := delta.RunAttack(d, m, nil, atk)
		if prev.Class[helper] != policy.ClassOrigin {
			t.Fatalf("%v: fixture broken — helper AS%d not seeded under the empty deployment", model, helper)
		}
		// Securing the destination flips the seeding condition: the
		// helper's root — far from the added set — must disappear from
		// the delta run exactly as it does from a from-scratch run.
		dep := &Deployment{Full: asgraph.SetOf(n, d)}
		got := delta.RunDelta(prev, []asgraph.AS{d}, nil, dep, atk)
		want := scratch.RunAttack(d, m, dep, atk)
		if !outcomesEqual(got, want) {
			t.Fatalf("%v: RunDelta kept a vanished root (helper AS%d: class %v, want %v)",
				model, helper, got.Class[helper], want.Class[helper])
		}
		// A further step that removes nothing: the (still vanished)
		// root stays vanished and the delta stays exact.
		other := asgraph.NonStubs(g)[5]
		if other == helper {
			other = asgraph.NonStubs(g)[6]
		}
		dep2 := &Deployment{Full: asgraph.SetOf(n, d, other)}
		got2 := delta.RunDelta(got, []asgraph.AS{other}, nil, dep2, atk)
		want2 := scratch.RunAttack(d, m, dep2, atk)
		if !outcomesEqual(got2, want2) {
			t.Fatalf("%v: second delta step after a vanished root diverges", model)
		}
	}
}

// TestRunDeltaRevivedRoute: an AS with *no route at all* in prev can be
// revived by a delta — a neighbor's route-class flip re-enables an
// export that never reached it — and the revival must propagate to
// pre-fixed neighbors whose best route changes because of it. The
// fixture: under security 1st, w prefers a secure provider route via q
// over an insecure customer route via a, so w exports nothing upward
// and the provider chain x0 → x1 above it is unrouted; z (peer of x1)
// sits on a worse provider ladder. Securing a flips w to a secure
// customer route, revives x0 and x1, and hands z a preferred peer
// route — chained RunDelta must track the whole cascade.
func TestRunDeltaRevivedRoute(t *testing.T) {
	const (
		d  = asgraph.AS(0)
		w  = asgraph.AS(1)
		a  = asgraph.AS(2)
		q  = asgraph.AS(3)
		x0 = asgraph.AS(4)
		x1 = asgraph.AS(5)
		z  = asgraph.AS(6)
		y  = asgraph.AS(7)
	)
	// Pad with stubs under y so the interesting region stays far below
	// the adaptive fallback threshold — a tiny graph would silently
	// fall back to the from-scratch path and mask the cascade.
	const n = 108
	gb := asgraph.NewBuilder(n)
	gb.AddProviderCustomer(q, d)
	gb.AddProviderCustomer(q, w)
	gb.AddProviderCustomer(w, a)
	gb.AddProviderCustomer(a, d)
	gb.AddProviderCustomer(x0, w)
	gb.AddProviderCustomer(x1, x0)
	gb.AddPeer(x1, z)
	gb.AddProviderCustomer(y, z)
	gb.AddProviderCustomer(q, y)
	for pad := asgraph.AS(8); pad < n; pad++ {
		gb.AddProviderCustomer(y, pad)
	}
	g := gb.MustBuild()

	prevDep := &Deployment{Full: asgraph.SetOf(n, d, q, w)}
	nextDep := &Deployment{Full: asgraph.SetOf(n, d, q, w, a)}

	delta := NewEngine(g, policy.Sec1st)
	scratch := NewEngine(g, policy.Sec1st)

	prev := delta.RunAttack(d, asgraph.None, prevDep, NoAttack{})
	if prev.Class[x0] != policy.ClassNone || prev.Class[x1] != policy.ClassNone {
		t.Fatalf("fixture broken: x0/x1 routed in prev (%v, %v), want unrouted", prev.Class[x0], prev.Class[x1])
	}
	if prev.Class[z] != policy.ClassProvider {
		t.Fatalf("fixture broken: z class %v in prev, want provider", prev.Class[z])
	}
	// The chained (aliased-prev) call is the hardest case: snapshots are
	// taken from the engine's own outcome as it is rewritten.
	got := delta.RunDelta(prev, []asgraph.AS{a}, nil, nextDep, NoAttack{})
	want := scratch.RunAttack(d, asgraph.None, nextDep, NoAttack{})
	if want.Class[z] != policy.ClassPeer {
		t.Fatalf("fixture broken: z class %v from scratch, want the revived peer route", want.Class[z])
	}
	if !outcomesEqual(got, want) {
		t.Fatalf("RunDelta missed the revived route cascade: z = (%v len %d), want (%v len %d)",
			got.Class[z], got.Len[z], want.Class[z], want.Len[z])
	}
}

// TestDeploymentDelta covers the signed capability delta: the added
// and removed lists for growing, shrinking, and mixed steps, including
// the capability-neutral membership moves that must appear in neither.
func TestDeploymentDelta(t *testing.T) {
	mk := func(full, simplex []asgraph.AS) *Deployment {
		return &Deployment{Full: asgraph.SetOf(64, full...), Simplex: asgraph.SetOf(64, simplex...)}
	}
	small := mk([]asgraph.AS{1, 5}, []asgraph.AS{9})
	big := mk([]asgraph.AS{1, 5, 7}, []asgraph.AS{9, 11})

	check := func(name string, prev, next *Deployment, wantAdd, wantRem []asgraph.AS) {
		t.Helper()
		added, removed := DeploymentDelta(prev, next)
		eq := func(got, want []asgraph.AS) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if !eq(added, wantAdd) || !eq(removed, wantRem) {
			t.Errorf("%s: DeploymentDelta = (%v, %v), want (%v, %v)", name, added, removed, wantAdd, wantRem)
		}
	}
	check("grow", small, big, []asgraph.AS{7, 11}, nil)
	check("shrink", big, small, nil, []asgraph.AS{7, 11})
	check("from-baseline", nil, small, []asgraph.AS{1, 5, 9}, nil)
	check("to-baseline", small, nil, nil, []asgraph.AS{1, 5, 9})
	check("equal", small, small, nil, nil)
	check("both-nil", nil, nil, nil, nil)
	// Incomparable deployments yield a remove-then-add step.
	other := mk([]asgraph.AS{1, 8}, []asgraph.AS{12})
	check("sideways", small, other, []asgraph.AS{8, 12}, []asgraph.AS{5, 9})
	// A simplex→full promotion is a pure addition (origin capability is
	// unchanged, validation is gained); a full→simplex demotion is the
	// mirror pure removal.
	promoted := mk([]asgraph.AS{1, 5, 9}, []asgraph.AS{9})
	check("promotion", small, promoted, []asgraph.AS{9}, nil)
	check("demotion", promoted, small, nil, []asgraph.AS{9})
	// A Full member redundantly joining or leaving Simplex changes no
	// capability at all.
	redundant := mk([]asgraph.AS{1, 5}, []asgraph.AS{5, 9})
	check("redundant-join", small, redundant, nil, nil)
	check("redundant-leave", redundant, small, nil, nil)
}

// TestDeploymentProbes holds the planner's allocation-free probes to
// their definitions on random deployment pairs: DeploymentDeltaVolume
// and DeploymentSeedVolume sum the degrees of DeploymentDelta's lists,
// the second with the listed ASes' customers once each, and
// OriginSecureFlips counts the ASes in exactly one Full ∪ Simplex.
func TestDeploymentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(150)
		g := topogen.Hierarchy(n, rand.New(rand.NewSource(int64(trial))).Intn)
		draw := func() *Deployment {
			if rng.Intn(5) == 0 {
				return nil
			}
			dep := &Deployment{Full: asgraph.NewSet(n), Simplex: asgraph.NewSet(n)}
			for v := 0; v < n; v++ {
				switch rng.Intn(4) {
				case 0:
					dep.Full.Add(asgraph.AS(v))
				case 1:
					dep.Simplex.Add(asgraph.AS(v))
				}
			}
			return dep
		}
		prev, next := draw(), draw()
		added, removed := DeploymentDelta(prev, next)
		var own, seed int64
		seen := map[asgraph.AS]bool{}
		for _, v := range append(added, removed...) {
			own += int64(g.Degree(v))
			for _, u := range append([]asgraph.AS{v}, g.Customers(v)...) {
				if !seen[u] {
					seen[u] = true
					seed += int64(g.Degree(u))
				}
			}
		}
		origin := func(dep *Deployment, v asgraph.AS) bool {
			return dep != nil && (dep.Full.Has(v) || dep.Simplex.Has(v))
		}
		flips := 0
		for v := asgraph.AS(0); int(v) < n; v++ {
			if origin(prev, v) != origin(next, v) {
				flips++
			}
		}
		scratch := asgraph.NewSet(n)
		if got := DeploymentDeltaVolume(g, prev, next); got != own {
			t.Fatalf("trial %d: DeploymentDeltaVolume = %d, want %d", trial, got, own)
		}
		if got := DeploymentSeedVolume(g, prev, next, scratch); got != seed {
			t.Fatalf("trial %d: DeploymentSeedVolume = %d, want %d", trial, got, seed)
		}
		if scratch.Len() != 0 {
			t.Fatalf("trial %d: DeploymentSeedVolume left %d ASes in its scratch", trial, scratch.Len())
		}
		if got := OriginSecureFlips(prev, next); got != flips {
			t.Fatalf("trial %d: OriginSecureFlips = %d, want %d", trial, got, flips)
		}
	}
}

// TestWithDeltaThreshold: a zero threshold disables the incremental
// path (every call that has stage work to do falls back, still exact); a
// threshold of 1 keeps even a huge delta incremental; results match
// from-scratch either way. A security-free step — the destination stays
// outside S at both ends — is decided before the threshold is consulted
// and is not a fallback: it runs no stage, incremental or from scratch,
// and hands back the very outcome it was given.
func TestWithDeltaThreshold(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 300, Seed: 39})
	n := g.N()
	scratch := NewEngine(g, policy.Sec2nd)
	big := asgraph.NewSet(n)
	var added []asgraph.AS
	for v := 0; v < n; v += 2 {
		big.Add(asgraph.AS(v))
		added = append(added, asgraph.AS(v))
	}
	next := &Deployment{Full: big}
	want := scratch.Run(4, 9, next).Clone()

	off := NewEngine(g, policy.Sec2nd, withDeltaThreshold(0))
	prev := off.Run(4, 9, nil)
	if got := off.RunDelta(prev, []asgraph.AS{2}, nil, &Deployment{Full: asgraph.SetOf(n, 2)}, nil); got != prev {
		t.Fatal("threshold 0: a security-free step did not return prev itself")
	}
	if c := off.counters; c.Fallbacks != 0 || c.NoOps != 1 {
		t.Fatalf("threshold 0: %+v on a security-free step, want one no-op and no fallback (no stage work at all)", c)
	}
	joined := &Deployment{Full: asgraph.SetOf(n, 2, 4)}
	if got := off.RunDelta(prev, []asgraph.AS{4}, nil, joined, nil); !outcomesEqual(got, scratch.Run(4, 9, joined)) {
		t.Fatal("threshold 0: the destination joining S diverges from the from-scratch run")
	}
	if off.counters.Fallbacks != 1 {
		t.Fatalf("threshold 0: %d fallbacks, want 1 (incremental path disabled)", off.counters.Fallbacks)
	}

	wide := NewEngine(g, policy.Sec2nd, withDeltaThreshold(1))
	prev = wide.Run(4, 9, nil)
	got := wide.RunDelta(prev, added, nil, next, nil)
	if !outcomesEqual(got, want) {
		t.Fatal("threshold 1: oversized delta diverges from from-scratch run")
	}
	if wide.counters.Fallbacks != 0 {
		t.Fatalf("threshold 1: %d fallbacks, want 0", wide.counters.Fallbacks)
	}
}

// revivalFixture is the smallest known graph on which a delta pass
// revives an AS whose best offer comes from a neighbor fixed in an
// earlier stage. Under security 1st with d = 6 and m = 9, prev's secure
// provider route at AS5 withholds the bogus customer route from AS2, so
// AS0, AS1, AS2, AS4 and AS10 are unrouted. Dropping 3, 5 and 6 from
// Full hands AS5 the bogus customer route: AS2 fixes in the customer
// stage, and AS10 must then take its provider route via AS2 (length 6),
// not the longer one via AS4 (length 9).
func revivalFixture() (g *asgraph.Graph, prevDep, nextDep *Deployment) {
	const n = 11
	b := asgraph.NewBuilder(n)
	for _, l := range [][2]asgraph.AS{{0, 1}, {1, 2}, {0, 4}, {2, 5}, {3, 5}, {3, 6}, {5, 7}, {7, 8}, {8, 9}, {2, 10}, {4, 10}} {
		b.AddProviderCustomer(l[0], l[1])
	}
	prevDep = &Deployment{Full: asgraph.SetOf(n, 2, 3, 4, 5, 6, 10)}
	nextDep = &Deployment{Full: asgraph.SetOf(n, 2, 4, 10), Simplex: asgraph.SetOf(n, 0)}
	return b.MustBuild(), prevDep, nextDep
}

// TestRunDeltaRevivalSeedsNextPass: an AS unrouted in prev is revived
// by a trigger inside one stage, so the pass that revives it never
// gathered the offers its neighbors fixed in earlier stages. The pass
// must count as grown so the next pass seeds the revived AS from all
// of them, even when every neighbor of it is already dirty.
func TestRunDeltaRevivalSeedsNextPass(t *testing.T) {
	g, prevDep, nextDep := revivalFixture()
	added, removed := DeploymentDelta(prevDep, nextDep)
	const d, m = 6, 9
	for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
		for _, opts := range [][]Option{nil, {WithResolvedTiebreak()}} {
			delta := NewEngineLP(g, policy.Sec1st, lp, append(opts, withDeltaThreshold(1))...)
			prev := delta.Run(d, m, prevDep)
			if prev.Class[10] != policy.ClassNone {
				t.Fatalf("fixture broken: AS10 routed in prev (%v)", prev.Class[10])
			}
			got := delta.RunDelta(prev, added, removed, nextDep, nil)
			want := NewEngineLP(g, policy.Sec1st, lp, opts...).Run(d, m, nextDep)
			if want.Class[10] != policy.ClassProvider || want.Next[10] != 2 {
				t.Fatalf("fixture broken: AS10 = (%v via %d) from scratch, want a provider route via AS2", want.Class[10], want.Next[10])
			}
			if delta.counters.Fallbacks != 0 {
				t.Fatalf("%v resolve=%v: fell back, the delta path was not exercised", lp, len(opts) > 0)
			}
			assertOutcomeEqual(t, "revival", got, want)
		}
	}
}
