package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// deltaScript draws every choice of one differential RunDelta case:
// from its bytes while they last, then from a PRNG seeded by the case's
// seed. A seed alone is therefore a complete case, and a short byte
// prefix pins a hand-built one.
type deltaScript struct {
	data []byte
	rng  *rand.Rand
	// full and simplex are the signed walk's current memberships.
	full, simplex *asgraph.Set
}

// pick returns a choice in [0, k).
func (s *deltaScript) pick(k int) int {
	if len(s.data) > 0 {
		b := s.data[0]
		s.data = s.data[1:]
		return int(b) % k
	}
	return s.rng.Intn(k)
}

// step draws the next deployment of a signed walk over Full and
// Simplex. One draw in four empties both sets and yields the nil
// deployment; otherwise up to seven memberships toggle, so a step may
// add, remove, promote or demote in one go.
func (s *deltaScript) step(n int) *Deployment {
	if s.pick(4) == 0 {
		s.full, s.simplex = asgraph.NewSet(n), asgraph.NewSet(n)
		return nil
	}
	for k := s.pick(8); k > 0; k-- {
		set := s.full
		v := asgraph.AS(s.pick(n))
		if s.pick(2) == 1 {
			set = s.simplex
		}
		if set.Has(v) {
			set.Remove(v)
		} else {
			set.Add(v)
		}
	}
	return &Deployment{Full: s.full.Clone(), Simplex: s.simplex.Clone()}
}

// revivalScript spells revivalFixture's case (TestRunDeltaRevivalSeedsNextPass)
// in deltaScript draws: n = 11, the providers of AS1..AS10, no peers,
// d = 6, m = 9, security 1st, LP, bound labels, withDeltaThreshold(1),
// the one-hop hijack, one RunDelta step; then the two deployments as
// membership toggles, the step chained.
var revivalScript = []byte{
	9,                                                                // n - 2
	1, 0, 1, 1, 0, 1, 0, 2, 2, 3, 1, 3, 1, 5, 1, 7, 1, 8, 2, 2, 4, 0, // graph
	6, 9, 0, 0, 0, 1, 0, 0, // d, m, model, lp, resolve, threshold, attack, steps - 1
	1, 6, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 10, 0, // prev: Full {2,3,4,5,6,10}
	1, 4, 3, 0, 5, 0, 6, 0, 0, 1, 0, // next: Full {2,4,10}, Simplex {0}; chained
}

// checkRunDeltaDifferential runs one case: a randomGraph graph, a
// scenario (destination, attacker or none, model, LP variant, tiebreak
// mode, delta threshold, attack), and a signed walk of up to eight
// RunDelta steps. Each step's prev is either the engine's own outcome
// or a clone another engine computed under the walk's previous
// deployment, after an unrelated run on the delta engine. Between steps
// the delta engine may hop: Rebind to a second graph of the same size,
// run there and Rebind back; Rebind(nil) then Rebind back; or SetModel
// to another model. A hop invalidates the engine's outcome as a
// predecessor, so the walk restarts from a RunAttack head. Every step,
// head and run on the second graph must equal a fresh engine's
// RunAttack field for field, and Engine.HappyBounds must equal the
// fresh outcome's label scan. Wherever SecurityFree holds, that outcome
// and its happy bounds must also be the pair's baseline (dep == nil)
// run's under every model: the collapse the sweep's memo, no-op steps
// and deferred heads rest on.
func checkRunDeltaDifferential(t *testing.T, seed int64, data []byte) {
	s := &deltaScript{data: data, rng: rand.New(rand.NewSource(seed))}
	n := 2 + s.pick(39)
	s.full, s.simplex = asgraph.NewSet(n), asgraph.NewSet(n)
	g := randomGraphFrom(n, s.pick)
	d := asgraph.AS(s.pick(n))
	m := asgraph.AS(s.pick(n + 1))
	if m == d || int(m) == n {
		m = asgraph.None
	}
	mi := s.pick(policy.NumModels)
	model := policy.Models[mi]
	lp := []policy.LocalPref{policy.Standard, policy.LP2}[s.pick(2)]
	var opts []Option
	if s.pick(2) == 1 {
		opts = append(opts, WithResolvedTiebreak())
	}
	deltaOpts := opts
	if s.pick(2) == 1 {
		deltaOpts = append(slices.Clip(opts), withDeltaThreshold(1))
	}
	var atk Attack = condOriginAttack{}
	if k := s.pick(len(Attacks()) + 1); k < len(Attacks()) {
		atk = Attacks()[k]
	} else {
		atk = condOriginAttack{helper: asgraph.AS(s.pick(n))}
	}
	steps := 1 + s.pick(8)

	delta := NewEngineLP(g, model, lp, deltaOpts...)
	producer := NewEngineLP(g, model, lp, opts...)
	// baseline returns the pair's baseline run on on under the current
	// model, after holding it to the runs under every other model once
	// per graph: a security-free cell equals all of them or none.
	var baselines *[policy.NumModels]*Outcome // on g, run on the first security-free check
	baseline := func(label string, on *asgraph.Graph) *Outcome {
		t.Helper()
		runs := baselines
		if on != g || runs == nil {
			// The producer engine re-runs from scratch whenever it is
			// used, so it can run the baselines and switch back.
			runs = new([policy.NumModels]*Outcome)
			producer.Rebind(on)
			for i, mod := range policy.Models {
				producer.SetModel(mod)
				runs[i] = producer.RunAttack(d, m, nil, atk).Clone()
				assertOutcomeEqual(t, fmt.Sprintf("%s: baseline under %v against %v", label, mod, policy.Models[0]), runs[i], runs[0])
			}
			producer.SetModel(policy.Models[mi])
			producer.Rebind(g)
			if on == g {
				baselines = runs
			}
		}
		return runs[mi]
	}
	// check holds got, the delta engine's latest outcome, to a fresh
	// engine's run on on under dep.
	check := func(label string, on *asgraph.Graph, got *Outcome, dep *Deployment) {
		t.Helper()
		label = fmt.Sprintf("seed %d %s (%v %v resolve=%v %s)", seed, label, model, lp, len(opts) > 0, atk.Name())
		fresh := NewEngineLP(on, model, lp, opts...)
		want := fresh.RunAttack(d, m, dep, atk)
		assertOutcomeEqual(t, label, got, want)
		lo, hi := delta.HappyBounds()
		if wlo, whi := want.HappyBounds(); lo != wlo || hi != whi {
			t.Fatalf("%s: HappyBounds (%d,%d), fresh scan (%d,%d)", label, lo, hi, wlo, whi)
		}
		if !fresh.SecurityFree(d, m, dep, atk) {
			return
		}
		base := baseline(label, on)
		assertOutcomeEqual(t, label+": security-free, against the baseline", want, base)
		if blo, bhi := base.HappyBounds(); lo != blo || hi != bhi {
			t.Fatalf("%s: security-free HappyBounds (%d,%d), baseline (%d,%d)", label, lo, hi, blo, bhi)
		}
	}
	dep := s.step(n)
	prev := delta.RunAttack(d, m, dep, atk)
	for i := 1; i <= steps; i++ {
		if i > 1 {
			hop := s.pick(8)
			switch hop {
			case 0:
				g2 := randomGraphFrom(n, s.pick)
				delta.Rebind(g2)
				check(fmt.Sprintf("step %d rebound", i), g2, delta.RunAttack(d, m, dep, atk), dep)
				delta.Rebind(g)
			case 1:
				delta.Rebind(nil)
				delta.Rebind(g)
			case 2:
				mi = (mi + 1 + s.pick(policy.NumModels-1)) % policy.NumModels
				model = policy.Models[mi]
				delta.SetModel(model)
				producer.SetModel(model)
			}
			if hop <= 2 {
				prev = delta.RunAttack(d, m, dep, atk)
				check(fmt.Sprintf("step %d head after hop %d", i, hop), g, prev, dep)
			}
		}
		next := s.step(n)
		added, removed := DeploymentDelta(dep, next)
		if s.pick(2) == 1 {
			prev = producer.RunAttack(d, m, dep, atk).Clone()
			delta.Run(asgraph.AS(s.pick(n)), asgraph.None, nil)
		}
		got := delta.RunDelta(prev, added, removed, next, atk)
		check(fmt.Sprintf("step %d, +%d/-%d", i, len(added), len(removed)), g, got, next)
		prev, dep = got, next
	}
}

// TestRunDeltaDifferential is FuzzRunDelta's deterministic tier-1 form:
// the revival fixture plus a fixed block of seeded cases.
func TestRunDeltaDifferential(t *testing.T) {
	checkRunDeltaDifferential(t, 0, revivalScript)
	cases := int64(3000)
	if testing.Short() || raceEnabled {
		cases = 300
	}
	for seed := int64(1); seed <= cases; seed++ {
		checkRunDeltaDifferential(t, seed, nil)
	}
}

// FuzzRunDelta holds RunDelta to a fresh engine on random graphs,
// scenarios and signed walks (checkRunDeltaDifferential). The fuzzer
// mutates the seed and the draw bytes; the revival fixture is in the
// seed corpus.
func FuzzRunDelta(f *testing.F) {
	f.Add(int64(0), revivalScript)
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, []byte(nil))
	}
	f.Fuzz(checkRunDeltaDifferential)
}
