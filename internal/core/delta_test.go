package core

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// growDeployment returns a copy of dep enlarged by roughly k ASes drawn
// from rng: non-stubs join Full, stubs split between Full and Simplex,
// and occasionally an existing simplex member is promoted into Full
// (legal: additions only, on both sets). The returned added list is
// exactly the delta RunDelta must be told about.
func growDeployment(g *asgraph.Graph, dep *Deployment, k int, rng *rand.Rand) (*Deployment, []asgraph.AS) {
	n := g.N()
	var full, simplex *asgraph.Set
	if dep == nil {
		full, simplex = asgraph.NewSet(n), asgraph.NewSet(n)
	} else {
		full, simplex = dep.Full.Clone(), dep.Simplex.Clone()
	}
	var added []asgraph.AS
	for i := 0; i < k; i++ {
		v := asgraph.AS(rng.Intn(n))
		switch {
		case simplex.Has(v) && !full.Has(v) && rng.Intn(2) == 0:
			full.Add(v) // simplex → full promotion (still an addition)
			added = append(added, v)
		case full.Has(v) || simplex.Has(v):
			continue
		case g.IsAnyStub(v) && rng.Intn(2) == 0:
			simplex.Add(v)
			added = append(added, v)
		default:
			full.Add(v)
			added = append(added, v)
		}
	}
	return &Deployment{Full: full, Simplex: simplex}, added
}

// TestRunDeltaMatchesFromScratch is the tentpole contract: chained
// RunDelta along a nested deployment series is field-for-field equal to
// a from-scratch run at every step, for every security model, both
// local-preference variants, and all four shipped attack seeders.
func TestRunDeltaMatchesFromScratch(t *testing.T) {
	graphs := map[string]*asgraph.Graph{}
	tg, _ := topogen.MustGenerate(topogen.Params{N: 600, Seed: 31})
	graphs["topogen-600"] = tg
	graphs["random-60"] = randomGraph(41, 60)
	attacks := []Attack{nil, NoAttack{}, PathPadding{Hops: 3}, OriginSpoof{}, OneHopHijack{}}
	for name, g := range graphs {
		n := g.N()
		for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
			for _, model := range policy.Models {
				rng := rand.New(rand.NewSource(int64(model) + 10*int64(lp.K) + int64(n)))
				delta := NewEngineLP(g, model, lp)
				scratch := NewEngineLP(g, model, lp)
				for _, atk := range attacks {
					d := asgraph.AS(rng.Intn(n))
					m := asgraph.AS(rng.Intn(n))
					if m == d {
						m = asgraph.None
					}
					dep, _ := growDeployment(g, nil, n/20, rng)
					prev := delta.RunAttack(d, m, dep, atk)
					atkName := "default"
					if atk != nil {
						atkName = atk.Name()
					}
					for step := 0; step < 8; step++ {
						// Vary the delta size: single ASes, small bursts,
						// the occasional empty step, and one step that
						// secures the destination itself (flipping its
						// origin security). It comes early: until then the
						// chain is usually security-free and RunDelta hands
						// prev straight back, and the dirty-region path this
						// test is about only runs from there on.
						k := []int{0, 1, 1, 2, 5, 9, 1, 3}[step]
						next, added := growDeployment(g, dep, k, rng)
						if step == 2 && !next.Full.Has(d) && !next.Simplex.Has(d) {
							next.Full.Add(d)
							added = append(added, d)
						}
						got := delta.RunDelta(prev, added, nil, next, atk)
						want := scratch.RunAttack(d, m, next, atk)
						if !outcomesEqual(got, want) {
							t.Fatalf("%s %v %v attack %s step %d (d=%d m=%d, |added|=%d): RunDelta diverges from from-scratch run",
								name, model, lp, atkName, step, d, m, len(added))
						}
						prev, dep = got, next
					}
				}
				if delta.counters.Fallbacks == 8*len(attacks) {
					t.Fatalf("%s %v %v: every RunDelta fell back to the from-scratch path; the incremental path was never exercised", name, model, lp)
				}
			}
		}
	}
}

// TestRunDeltaExternalPrev: prev need not alias the engine's own
// outcome — a retained Clone from another engine works identically, and
// the engine may interleave unrelated runs in between.
func TestRunDeltaExternalPrev(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 32})
	n := g.N()
	rng := rand.New(rand.NewSource(5))
	for _, model := range policy.Models {
		producer := NewEngine(g, model)
		delta := NewEngine(g, model)
		scratch := NewEngine(g, model)
		dep, _ := growDeployment(g, nil, n/10, rng)
		d, m := asgraph.AS(rng.Intn(n)), asgraph.AS(rng.Intn(n))
		if m == d {
			m = asgraph.None
		}
		prev := producer.Run(d, m, dep).Clone()
		for step := 0; step < 4; step++ {
			// An unrelated run in between must not perturb the delta.
			delta.Run(asgraph.AS(rng.Intn(n)), asgraph.None, nil)
			next, added := growDeployment(g, dep, 1+rng.Intn(4), rng)
			got := delta.RunDelta(prev, added, nil, next, nil)
			want := scratch.Run(d, m, next)
			if !outcomesEqual(got, want) {
				t.Fatalf("%v step %d: RunDelta from external prev diverges", model, step)
			}
			prev, dep = got.Clone(), next
		}
	}
}

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
		next2, added2 := growDeployment(g, next, 2, rand.New(rand.NewSource(1)))
		got2 := delta.RunDelta(got, added2, nil, next2, nil)
		want2 := scratch.Run(2, 7, next2)
		if !outcomesEqual(got2, want2) {
			t.Fatalf("%v: post-fallback RunDelta diverges", model)
		}
	}
}

// TestRunDeltaNoStateLeak: interleaving RunDelta chains with ordinary
// runs — including switching destinations, attackers, and strategies
// between deltas — leaves no dirty-set or snapshot state behind: every
// run equals the one a fresh engine computes. This is the engine half
// of the cancellation-cleanliness contract (the sweep layer's race test
// covers the scheduler half).
func TestRunDeltaNoStateLeak(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 34})
	n := g.N()
	rng := rand.New(rand.NewSource(9))
	attacks := []Attack{nil, NoAttack{}, PathPadding{Hops: 4}}
	e := NewEngine(g, policy.Sec2nd)
	dep, _ := growDeployment(g, nil, n/10, rng)
	for round := 0; round < 10; round++ {
		d, m := asgraph.AS(rng.Intn(n)), asgraph.AS(rng.Intn(n))
		if m == d {
			m = asgraph.None
		}
		atk := attacks[rng.Intn(len(attacks))]
		prev := e.RunAttack(d, m, dep, atk)
		next, added := growDeployment(g, dep, 1+rng.Intn(3), rng)
		if round%2 == 0 && !next.OriginSecure(d) {
			// Every other round the destination joins too, so the step is
			// a real dirty-region pass and not a security-free no-op.
			next.Full.Add(d)
			added = append(added, d)
		}
		got := e.RunDelta(prev, added, nil, next, atk)
		want := NewEngine(g, policy.Sec2nd).RunAttack(d, m, next, atk)
		if !outcomesEqual(got, want) {
			t.Fatalf("round %d: delta run diverges from a fresh engine", round)
		}
		// The very next ordinary run must also be clean.
		d2 := asgraph.AS(rng.Intn(n))
		gotPlain := e.Run(d2, asgraph.None, dep)
		wantPlain := NewEngine(g, policy.Sec2nd).Run(d2, asgraph.None, dep)
		if !outcomesEqual(gotPlain, wantPlain) {
			t.Fatalf("round %d: ordinary run after RunDelta diverges from a fresh engine", round)
		}
		dep = next
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
		g := randomGraph(int64(trial), n)
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

// shrinkDeployment removes roughly k members (Full or Simplex) from
// dep, returning the shrunk deployment and the removed capability list
// RunDelta must be told about.
func shrinkDeployment(dep *Deployment, k int, rng *rand.Rand) (*Deployment, []asgraph.AS) {
	full, simplex := dep.Full.Clone(), dep.Simplex.Clone()
	members := full.Members()
	sx := simplex.Members()
	var removed []asgraph.AS
	for i := 0; i < k; i++ {
		pick := rng.Intn(len(members) + len(sx))
		if pick < len(members) {
			v := members[pick]
			if !full.Has(v) {
				continue
			}
			full.Remove(v)
			removed = append(removed, v)
			if simplex.Has(v) {
				// Still origin-capable: a demotion, not a union exit —
				// the removal list entry stays (Full capability lost).
				continue
			}
		} else {
			v := sx[pick-len(members)]
			if !simplex.Has(v) || full.Has(v) {
				continue
			}
			simplex.Remove(v)
			removed = append(removed, v)
		}
	}
	return &Deployment{Full: full, Simplex: simplex}, removed
}

// TestRunDeltaRemovalMatchesFromScratch pins the removal-delta
// contract: chained RunDelta along a series that grows AND shrinks —
// including pure-shrink steps and mixed remove-then-add steps between
// incomparable deployments — is field-for-field equal to a from-scratch
// run at every step, for every security model, both local-preference
// variants, and all four shipped attack seeders. The incrementally
// maintained happy bounds must agree with a full label scan throughout.
func TestRunDeltaRemovalMatchesFromScratch(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 600, Seed: 36})
	n := g.N()
	attacks := []Attack{nil, NoAttack{}, PathPadding{Hops: 3}, OriginSpoof{}}
	for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
		for _, model := range policy.Models {
			rng := rand.New(rand.NewSource(100*int64(lp.K) + int64(model)))
			delta := NewEngineLP(g, model, lp)
			scratch := NewEngineLP(g, model, lp)
			for _, atk := range attacks {
				d := asgraph.AS(rng.Intn(n))
				m := asgraph.AS(rng.Intn(n))
				if m == d {
					m = asgraph.None
				}
				// Start from a mid-sized deployment that includes the
				// destination, so shrink steps can strip security off
				// live secure routes (the reverse-reachability case).
				dep, _ := growDeployment(g, nil, n/10, rng)
				dep.Full.Add(d)
				prev := delta.RunAttack(d, m, dep, atk)
				for step := 0; step < 8; step++ {
					var next *Deployment
					var added, removed []asgraph.AS
					switch step % 4 {
					case 0, 2: // shrink
						next, removed = shrinkDeployment(dep, 1+rng.Intn(6), rng)
					case 1: // grow
						next, added = growDeployment(g, dep, 1+rng.Intn(6), rng)
					case 3: // sideways: remove some, add others
						mid, rem := shrinkDeployment(dep, 1+rng.Intn(4), rng)
						next, added = growDeployment(g, mid, 1+rng.Intn(4), rng)
						removed = rem
					}
					got := delta.RunDelta(prev, added, removed, next, atk)
					want := scratch.RunAttack(d, m, next, atk)
					if !outcomesEqual(got, want) {
						t.Fatalf("%v %v step %d (d=%d m=%d, +%d/-%d): removal RunDelta diverges from from-scratch run",
							model, lp, step, d, m, len(added), len(removed))
					}
					lo, hi := delta.HappyBounds()
					wlo, whi := want.HappyBounds()
					if lo != wlo || hi != whi {
						t.Fatalf("%v %v step %d: incremental happy bounds (%d,%d) diverge from scan (%d,%d)",
							model, lp, step, lo, hi, wlo, whi)
					}
					prev, dep = got, next
				}
			}
			if delta.counters.Fallbacks == 8*len(attacks) {
				t.Fatalf("%v %v: every removal RunDelta fell back; the incremental path was never exercised", model, lp)
			}
		}
	}
}

// TestRunDeltaGrowThenShrink is the rollback regression: a chain that
// grows a deployment for several steps and then walks it back down the
// same slope, ending at the exact starting membership. Every step —
// especially the first shrink after the peak, where the whole secure
// overlay built by the grows starts tearing down — must equal the
// from-scratch run, and the final outcome must equal the chain's first.
func TestRunDeltaGrowThenShrink(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 37})
	n := g.N()
	nonStubs := asgraph.NonStubs(g)
	const d, m = 11, 23
	for _, model := range policy.Models {
		delta := NewEngine(g, model)
		scratch := NewEngine(g, model)
		base := &Deployment{Full: asgraph.SetOf(n, d)}
		deps := []*Deployment{base}
		for k := 1; k <= 6; k++ {
			next := deps[len(deps)-1].Full.Clone()
			next.Add(nonStubs[k])
			next.Add(nonStubs[k+20])
			deps = append(deps, &Deployment{Full: next})
		}
		// Up the slope, then back down to the start.
		series := append([]*Deployment{}, deps...)
		for k := len(deps) - 2; k >= 0; k-- {
			series = append(series, deps[k])
		}
		prev := delta.RunAttack(d, m, series[0], nil)
		first := prev.Clone()
		for i := 1; i < len(series); i++ {
			added, removed := DeploymentDelta(series[i-1], series[i])
			got := delta.RunDelta(prev, added, removed, series[i], nil)
			want := scratch.RunAttack(d, m, series[i], nil)
			if !outcomesEqual(got, want) {
				t.Fatalf("%v: grow-then-shrink chain diverges at step %d (+%d/-%d)",
					model, i, len(added), len(removed))
			}
			prev = got
		}
		if !outcomesEqual(prev, first) {
			t.Fatalf("%v: walking the chain back down did not restore the initial outcome", model)
		}
		if delta.counters.Fallbacks == len(series)-1 {
			t.Fatalf("%v: every grow-then-shrink step fell back to from-scratch", model)
		}
	}
}

// TestRunDeltaHappyBoundsChained: Engine.HappyBounds equals the O(n)
// label scan at every step of a growing chain (the sweep scheduler
// reads the incremental counts instead of re-scanning).
func TestRunDeltaHappyBoundsChained(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 38})
	n := g.N()
	rng := rand.New(rand.NewSource(21))
	e := NewEngine(g, policy.Sec3rd)
	dep, _ := growDeployment(g, nil, n/20, rng)
	dep.Full.Add(3) // a secure destination: every step does incremental work
	prev := e.RunAttack(3, 9, dep, nil)
	for step := 0; step < 6; step++ {
		lo, hi := e.HappyBounds()
		wlo, whi := prev.HappyBounds()
		if lo != wlo || hi != whi {
			t.Fatalf("step %d: HappyBounds (%d,%d) != scan (%d,%d)", step, lo, hi, wlo, whi)
		}
		next, added := growDeployment(g, dep, 1+rng.Intn(4), rng)
		prev = e.RunDelta(prev, added, nil, next, nil)
		dep = next
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
