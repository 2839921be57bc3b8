package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/bgpsim"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
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

// walk is one case of the property walk: its seed, the per-property
// counts of checks and failures with each property's first failure (maps
// every case of a corpus shares), and fail, which reports a failed check
// and does not return.
type walk struct {
	seed          int64
	checks, fails map[string]int
	first         map[string]string
	fail          func(msg string)
}

func newWalk(fail func(msg string)) walk {
	return walk{checks: map[string]int{}, fails: map[string]int{}, first: map[string]string{}, fail: fail}
}

// note counts k checks of prop and, unless ok, a failure, whose
// message it returns.
func (w *walk) note(prop string, k int, ok bool, format string, args ...any) string {
	if w.checks[prop] += k; ok {
		return ""
	}
	msg := fmt.Sprintf("seed %d: %s: %s", w.seed, prop, fmt.Sprintf(format, args...))
	if w.fails[prop]++; w.first[prop] == "" {
		w.first[prop] = msg
	}
	return msg
}

// check is note, failing the case unless ok.
func (w *walk) check(prop string, k int, ok bool, format string, args ...any) {
	if msg := w.note(prop, k, ok, format, args...); msg != "" {
		w.fail(msg)
	}
}

// outcomeDiff describes the first AS at which two outcomes differ, or
// returns "" when they agree field for field.
func outcomeDiff(got, want *Outcome) string {
	if got.Dst != want.Dst || got.Attacker != want.Attacker {
		return fmt.Sprintf("scenario mismatch (dst %d/%d attacker %d/%d)", got.Dst, want.Dst, got.Attacker, want.Attacker)
	}
	for v := range want.Class {
		if got.Class[v] != want.Class[v] || got.Len[v] != want.Len[v] ||
			got.Secure[v] != want.Secure[v] || got.Label[v] != want.Label[v] ||
			got.Next[v] != want.Next[v] {
			return fmt.Sprintf("AS%d differs: got (%v,%d,%v,%v,%d) want (%v,%d,%v,%v,%d)", v,
				got.Class[v], got.Len[v], got.Secure[v], got.Label[v], got.Next[v],
				want.Class[v], want.Len[v], want.Secure[v], want.Label[v], want.Next[v])
		}
	}
	return ""
}

func outcomesEqual(a, b *Outcome) bool { return outcomeDiff(a, b) == "" }

func assertOutcomeEqual(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	if diff := outcomeDiff(got, want); diff != "" {
		t.Fatalf("%s: %s", label, diff)
	}
}

// partitionViolation returns the first source whose label in o
// contradicts its category in p under model, or asgraph.None. An immune
// AS is happy, and a doomed AS never happy, nor tied. On an arbitrary
// graph (lenient) an immune AS may instead lose every route under
// security 1st: a secure AS that takes a secure peer route withholds the
// customer route its providers relied on.
func partitionViolation(p *Partition, model policy.Model, o *Outcome, lenient bool) asgraph.AS {
	for v, l := range o.Label {
		if u := asgraph.AS(v); u == o.Dst || u == o.Attacker {
			continue
		}
		switch p.Cat[model][v] {
		case CatImmune:
			if l != LabelDest && (!lenient || model != policy.Sec1st || l != LabelNone) {
				return asgraph.AS(v)
			}
		case CatDoomed:
			if l == LabelDest || l == LabelAmbig {
				return asgraph.AS(v)
			}
		}
	}
	return asgraph.None
}

// routesVia reports whether v's route in o reaches m.
func routesVia(o *Outcome, v, m asgraph.AS) bool {
	for ; v != asgraph.None; v = o.Next[v] {
		if v == m {
			return true
		}
	}
	return false
}

// checkPaper holds one scenario's outcomes in both tiebreak modes, bounds
// and res from engines bE and rE, to the paper and the engine's per-AS
// invariants; aux is the step's PRNG, and sim enables the bgpsim check.
//
//   - the bounds bracket the resolved outcome; secure routes sit only at
//     full adopters and reach the destination; lengths grow by one along
//     Next; without an attacker no AS is unhappy or tied; under the
//     one-hop hijack labels agree with the partitioner's verdicts (part);
//   - NoAttack and the RPKI-filtered OriginSpoof (§4.2) route exactly as
//     normal conditions do;
//   - Theorem 3.1: under security 1st, an AS whose normal-conditions
//     route is secure and avoids m keeps a secure route in the attack;
//   - Theorem 6.1: under security 3rd, growing Full never makes a happy
//     AS unhappy;
//   - Theorem 2.1: on a Full-only deployment under the one-hop hijack or
//     no attack, bgpsim converges under a random activation schedule to
//     the resolved outcome.
func (w *walk) checkPaper(label string, g *asgraph.Graph, part *Partition, model policy.Model, lp policy.LocalPref,
	dep *Deployment, atk Attack, bE, rE *Engine, bounds, res *Outcome, aux *rand.Rand, sim bool) {
	n, d, m := g.N(), res.Dst, res.Attacker
	_, oneHop := atk.(OneHopHijack)
	lo, hi := bounds.HappyBounds()
	rl, rh := res.HappyBounds()
	w.check("bracket", 1, rl == rh && lo <= rl && rl <= hi, "%s: resolved happy (%d,%d) outside [%d,%d]", label, rl, rh, lo, hi)
	engines, outs := []*Engine{bE, rE}, []*Outcome{bounds, res}
	for _, o := range outs {
		sec, next, quiet := asgraph.None, asgraph.None, asgraph.None
		for v := range o.Label {
			u := asgraph.AS(v)
			if o.Secure[v] && o.Class[v] != policy.ClassOrigin && (!dep.FullSecure(u) || o.Label[v] != LabelDest) {
				sec = u
			}
			if x := o.Next[v]; x != asgraph.None && o.Len[v] != o.Len[x]+1 {
				next = u
			}
			if m == asgraph.None && (o.Label[v] == LabelAttacker || o.Label[v] == LabelAmbig) {
				quiet = u
			}
		}
		w.check("secure-at-full", n, sec == asgraph.None, "%s: AS%d secure but not a happy full adopter", label, sec)
		w.check("next-len", n, next == asgraph.None, "%s: length gap at AS%d", label, next)
		if m == asgraph.None {
			w.check("normal", n, quiet == asgraph.None, "%s: AS%d unhappy or tied without an attacker", label, quiet)
		}
		if oneHop && m != asgraph.None {
			// Hierarchies (n ≤ 40) are arbitrary graphs; topogen graphs
			// (n ≥ 60) are held to the strict rule.
			v := partitionViolation(part, model, o, n <= 40)
			w.check("partition", n, v == asgraph.None, "%s: AS%d labelled against its category", label, v)
		}
	}
	switch atk.(type) {
	case NoAttack, OriginSpoof:
		prop := "rpki"
		if atk == Attack(NoAttack{}) {
			prop = "noattack"
		}
		for i, e := range engines {
			normal := e.RunNormal(d, dep).Clone()
			normal.Attacker = m
			diff := outcomeDiff(outs[i], normal)
			w.check(prop, n, diff == "", "%s: differs from normal conditions: %s", label, diff)
		}
	}
	if model == policy.Sec1st && oneHop && m != asgraph.None {
		normal, bad := rE.RunNormal(d, dep), asgraph.None
		for v := range normal.Secure {
			u := asgraph.AS(v)
			if u != d && u != m && normal.Secure[v] && !routesVia(normal, u, m) && (!res.Secure[v] || res.Label[v] != LabelDest) {
				bad = u
			}
		}
		w.check("thm31", n, bad == asgraph.None, "%s: AS%d downgraded under security 1st", label, bad)
	}
	if model == policy.Sec3rd && oneHop {
		big := &Deployment{Full: asgraph.NewSet(n)}
		if dep != nil {
			big = &Deployment{Full: dep.Full.Clone(), Simplex: dep.Simplex}
		}
		for v := 0; v < n; v++ {
			if aux.Intn(2) == 0 {
				big.Full.Add(asgraph.AS(v))
			}
		}
		for i, e := range engines {
			grown, bad := e.RunAttack(d, m, big, atk), asgraph.None
			for v, l := range outs[i].Label {
				if l == LabelDest && grown.Label[v] != LabelDest && asgraph.AS(v) != d && asgraph.AS(v) != m {
					bad = asgraph.AS(v)
				}
			}
			w.check("thm61", n, bad == asgraph.None, "%s: AS%d lost happiness when Full grew", label, bad)
		}
	}
	if (oneHop || atk == Attack(NoAttack{})) && sim && (dep == nil || len(dep.Simplex.MembersNotIn(dep.Full)) == 0) {
		var full *asgraph.Set
		if dep != nil {
			full = dep.Full
		}
		net := bgpsim.NewLP(g, bgpsim.UniformPlacements(g, model, full), lp)
		net.Announce(d)
		if oneHop && m != asgraph.None {
			net.Attack(m, d)
		}
		net.RunRandom(0, aux)
		bad := asgraph.None
		for v := range res.Class {
			u := asgraph.AS(v)
			if u == d || (oneHop && u == m) {
				continue
			}
			if r := net.RouteOf(u); r == nil {
				if res.Class[v] != policy.ClassNone {
					bad = u
				}
			} else if res.Next[v] != r.Path[1] || int(res.Len[v]) != len(r.Path)-1 || res.Secure[v] != r.Secure || (res.Label[v] == LabelDest) != net.Happy(u) {
				bad = u
			}
		}
		w.check("thm21", n, bad == asgraph.None, "%s: bgpsim's stable state differs at AS%d", label, bad)
	}
}

// checkSecFree holds the SecurityFree predicate to its definition: it
// never holds for an origin-secure destination, for an attack that
// plants a secure origin, or for one whose seeds depend on a non-nil
// deployment; it holds for every other attack here while the
// destination is outside S; and every model agrees with it (e is
// switched through them all).
func (w *walk) checkSecFree(label string, e *Engine, d, m asgraph.AS, dep *Deployment, atk Attack) bool {
	free, want := e.SecurityFree(d, m, dep, atk), !dep.OriginSecure(d)
	switch atk.(type) {
	case secureOriginAttack:
		want = false
	case depSeedAttack:
		want = dep == nil
	}
	w.check("secfree-predicate", 1, free == want, "%s: SecurityFree = %v", label, free)
	model := e.Model()
	for _, mod := range policy.Models {
		e.SetModel(mod)
		got := e.SecurityFree(d, m, dep, atk)
		w.check("secfree-predicate", 1, got == free, "%s: SecurityFree under %v = %v, under %v = %v", label, mod, got, model, free)
	}
	e.SetModel(model)
	return free
}

// checkRunDeltaDifferential runs one case of the property walk: a graph
// (a topogen.Hierarchy drawn from the script or, for one seed in ten, an
// Internet-like topogen graph of 60–600 ASes), a scenario (destination,
// attacker or none, model, LP variant, tiebreak mode, delta threshold,
// attack) and a signed walk of up to eight RunDelta steps. A step's prev
// is the engine's own outcome or, after an unrelated run on the delta
// engine, another engine's clone. Between steps the delta engine may hop
// — Rebind to a second graph of the same size, run and step there, and
// back; Rebind(nil) and back; or SetModel — and restart from a head.
//
// Every step, head and run on the second graph must equal a fresh
// engine's RunAttack, its happy bounds the label scan, and wherever
// SecurityFree holds, the pair's baseline (dep == nil) under every model:
// the collapse the sweep's memo, no-op steps and deferred heads rest on.
// Each is then held to the paper (checkPaper) and the predicate to its
// definition (checkSecFree); a long-lived engine must agree after another
// scenario; RunDelta must be a no-op exactly on chained free → free steps,
// a threshold-0 engine fall back on every other one, and a rebound engine
// price its graph and fall back like one built for it. A last step takes
// one AS out of full deployment (see there). Choices beyond the
// script come from PRNGs keyed by (seed, step), so a script replays its
// case whatever checks are added.
func checkRunDeltaDifferential(w *walk, data []byte) {
	seed := w.seed
	s := &deltaScript{data: data, rng: rand.New(rand.NewSource(seed))}
	internet := seed%10 == 7
	n := 60 + 10*int(seed/10%55)
	if !internet {
		n = 2 + s.pick(39)
	}
	// graph draws the case's graph, or the second graph of a hop.
	graph := func(variant int64) *asgraph.Graph {
		if internet {
			g, _ := topogen.MustGenerate(topogen.Params{N: n, Seed: seed + variant, SeedSet: true, NumCPs: 3, NumIXPs: 3})
			return g
		}
		return topogen.Hierarchy(n, s.pick)
	}
	s.full, s.simplex = asgraph.NewSet(n), asgraph.NewSet(n)
	g := graph(0)
	d := asgraph.AS(s.pick(n))
	m := asgraph.AS(s.pick(n + 1))
	if m == d || int(m) == n {
		m = asgraph.None
	}
	mi := s.pick(policy.NumModels)
	model := policy.Models[mi]
	lp := []policy.LocalPref{policy.Standard, policy.LP2}[s.pick(2)]
	resolve := s.pick(2) == 1
	opts, altOpts := []Option{WithResolvedTiebreak()}, []Option(nil)
	if !resolve {
		opts, altOpts = altOpts, opts
	}
	deltaOpts, threshold0 := opts, false
	if s.pick(2) == 1 {
		deltaOpts = append(slices.Clip(opts), withDeltaThreshold(1))
	} else if threshold0 = seed%3 == 2; threshold0 {
		deltaOpts = append(slices.Clip(opts), withDeltaThreshold(0))
	}
	var atk Attack
	if k := s.pick(len(Attacks()) + 1); k < len(Attacks()) {
		atk = Attacks()[k]
	} else {
		atk = customAttack(int(uint64(seed)%5), asgraph.AS(s.pick(n)), d, m)
	}
	steps := 1 + s.pick(8)
	if internet {
		// Walk from a tenth of the graph plus the destination: a rollout
		// step's regime, secure routes and all.
		for aux, v := stepRand(seed, -1<<20), 0; v < n; v++ {
			if v == int(d) || aux.Intn(10) == 0 {
				s.full.Add(asgraph.AS(v))
			}
		}
	}

	delta := NewEngineLP(g, model, lp, deltaOpts...)
	producer := NewEngineLP(g, model, lp, opts...)
	var part *Partition
	if m != asgraph.None {
		part = NewPartitioner(g, lp).Run(d, m)
	}
	all := &Deployment{Full: asgraph.NewSet(n)}
	for v := range n {
		all.Full.Add(asgraph.AS(v))
	}
	if m != asgraph.None && lp == policy.Standard {
		// With everyone secure under security 1st and standard LP, a source
		// is happy exactly when it is not doomed (or has no route at all).
		o, bad := NewEngineLP(g, policy.Sec1st, lp).Run(d, m, all), asgraph.None
		for v, l := range o.Label {
			doomed := part.Cat[policy.Sec1st][v] == CatDoomed
			if u := asgraph.AS(v); u != d && u != m && (doomed && l == LabelDest || !doomed && l != LabelDest && l != LabelNone) {
				bad = u
			}
		}
		w.check("full-sec1", n, bad == asgraph.None, "AS%d happy = doomed under full deployment", bad)
	}
	// baseline returns the pair's baseline run on on under the current
	// model, after holding it to the runs under every other model once
	// per graph: a security-free cell equals all of them or none.
	var baselines *[policy.NumModels]*Outcome // on g, run on the first security-free check
	baseline := func(label string, on *asgraph.Graph) *Outcome {
		runs := baselines
		if on != g || runs == nil {
			// The producer engine re-runs from scratch whenever it is
			// used, so it can run the baselines and switch back.
			runs = new([policy.NumModels]*Outcome)
			producer.Rebind(on)
			for i, mod := range policy.Models {
				producer.SetModel(mod)
				runs[i] = producer.RunAttack(d, m, nil, atk).Clone()
				diff := outcomeDiff(runs[i], runs[0])
				w.check("secfree-baseline", 1, diff == "", "%s: baseline under %v against %v: %s", label, mod, policy.Models[0], diff)
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
	// engine's run on on under dep, and the run to every property; it
	// returns whether the cell is security-free. The fresh comparison,
	// happy bounds included, also counts under each of the step's kinds.
	calls := int64(0)
	check := func(label string, on *asgraph.Graph, got *Outcome, dep *Deployment, kinds ...string) bool {
		calls++
		aux := stepRand(seed, calls)
		label = fmt.Sprintf("%s (%v %v resolve=%v %s)", label, model, lp, resolve, atk.Name())
		fresh, alt := NewEngineLP(on, model, lp, opts...), NewEngineLP(on, model, lp, altOpts...)
		want := fresh.RunAttack(d, m, dep, atk).Clone()
		diff := outcomeDiff(got, want)
		lo, hi := delta.HappyBounds()
		wlo, whi := want.HappyBounds()
		for _, k := range kinds {
			w.note(k, 1, diff == "" && lo == wlo && hi == whi, "%s: %s; HappyBounds (%d,%d), fresh (%d,%d)", label, diff, lo, hi, wlo, whi)
		}
		w.check("fresh", 1, diff == "", "%s: %s", label, diff)
		w.check("happy-bounds", 1, lo == wlo && hi == whi, "%s: HappyBounds (%d,%d), fresh scan (%d,%d)", label, lo, hi, wlo, whi)
		free := w.checkSecFree(label, fresh, d, m, dep, atk)
		if free {
			base := baseline(label, on)
			diff := outcomeDiff(want, base)
			blo, bhi := base.HappyBounds()
			w.check("secfree-baseline", 1, diff == "" && lo == blo && hi == bhi, "%s: security-free, against the baseline: %s; HappyBounds (%d,%d), baseline (%d,%d)", label, diff, lo, hi, blo, bhi)
		}
		p := part
		if on != g && m != asgraph.None {
			p = NewPartitioner(on, lp).Run(d, m)
		}
		bE, rE := alt, fresh
		bounds, res := alt.RunAttack(d, m, dep, atk).Clone(), want
		if !resolve {
			bE, rE, bounds, res = rE, bE, res, bounds
		}
		// bgpsim rescans its queue on every delivery: topogen graphs run it
		// at their head only, up to 260 ASes.
		w.checkPaper(label, on, p, model, lp, dep, atk, bE, rE, bounds, res, aux, n <= 40 || calls == 1 && n <= 260)
		if on == g {
			// The producer is long-lived: run it on another pair under
			// another attack first, and it must still agree.
			x, y := asgraph.AS(aux.Intn(n)), asgraph.AS(aux.Intn(n+1))
			if y == x || int(y) == n {
				y = asgraph.None
			}
			other := Attacks()[aux.Intn(len(Attacks()))]
			if aux.Intn(3) == 0 {
				other = customAttack(aux.Intn(3), asgraph.AS(aux.Intn(n)), x, y)
			}
			producer.RunAttack(x, y, []*Deployment{nil, dep}[aux.Intn(2)], other)
			diff := outcomeDiff(producer.RunAttack(d, m, dep, atk), want)
			if resolve {
				w.note("epoch-resolved", 1, diff == "", "%s: %s", label, diff)
			}
			w.check("epoch", 1, diff == "", "%s: long-lived engine after %s: %s", label, other.Name(), diff)
		}
		return free
	}
	dep := s.step(n)
	prev := delta.RunAttack(d, m, dep, atk)
	free := check("head", g, prev, dep)
	grew := false
	for i := 1; i <= steps; i++ {
		if i > 1 {
			hop := s.pick(8)
			switch hop {
			case 0:
				g2 := graph(int64(i))
				delta.Rebind(g2)
				check(fmt.Sprintf("step %d rebound", i), g2, delta.RunAttack(d, m, dep, atk), dep, "rebound")
				// One delta step on g2, against an engine built for it.
				walk2 := &deltaScript{rng: stepRand(seed, -int64(i)), full: s.full.Clone(), simplex: s.simplex.Clone()}
				dep2 := walk2.step(n)
				added, removed := DeploymentDelta(dep, dep2)
				mirror := NewEngineLP(g2, model, lp, deltaOpts...)
				fallbacks := delta.counters.Fallbacks
				mirror.RunDelta(mirror.RunAttack(d, m, dep, atk), added, removed, dep2, atk)
				check(fmt.Sprintf("step %d rebound delta", i), g2, delta.RunDelta(&delta.out, added, removed, dep2, atk), dep2, "rebound")
				w.check("rebind", 1, delta.Graph() == g2 && delta.totalVol == mirror.totalVol && delta.counters.Fallbacks-fallbacks == mirror.counters.Fallbacks,
					"step %d: rebound engine prices volume %d and fell back %d times, one built for the graph %d and %d",
					i, delta.totalVol, delta.counters.Fallbacks-fallbacks, mirror.totalVol, mirror.counters.Fallbacks)
				delta.Rebind(g)
			case 1:
				delta.Rebind(nil)
				delta.Rebind(g)
			case 2:
				mi = (mi + 1 + s.pick(policy.NumModels-1)) % policy.NumModels
				model = policy.Models[mi]
				delta.SetModel(model)
				producer.SetModel(model)
				w.check("rebind", 1, delta.Model() == model, "step %d: SetModel(%v) left the engine at %v", i, model, delta.Model())
			}
			if hop <= 2 {
				prev = delta.RunAttack(d, m, dep, atk)
				free = check(fmt.Sprintf("step %d head after hop %d", i, hop), g, prev, dep)
			}
		}
		next := s.step(n)
		added, removed := DeploymentDelta(dep, next)
		if s.pick(2) == 1 {
			prev = producer.RunAttack(d, m, dep, atk).Clone()
			x := asgraph.AS(s.pick(n))
			diff := outcomeDiff(delta.Run(x, asgraph.None, nil), NewEngineLP(g, model, lp, opts...).Run(x, asgraph.None, nil))
			w.check("noleak", 1, diff == "", "step %d: unrelated run after RunDelta: %s", i, diff)
		}
		chained, before := prev == &delta.out, delta.counters
		got := delta.RunDelta(prev, added, removed, next, atk)
		after := delta.counters
		label := fmt.Sprintf("step %d, +%d/-%d", i, len(added), len(removed))
		kinds := []string{"external-prev"}
		if chained {
			kinds[0] = "chained"
		}
		if internet && after.Passes > before.Passes {
			kinds = append(kinds, "internet-delta")
		}
		if len(removed) > 0 {
			if kinds = append(kinds, "removal"); grew {
				kinds = append(kinds, "shrink-after-grow")
			}
		}
		freeNext := check(label, g, got, next, kinds...)
		noop := after.NoOps > before.NoOps
		w.check("secfree-noop", 1, noop == (chained && free && freeNext), "%s: no-op = %v, chained %v from free %v to free %v", label, noop, chained, free, freeNext)
		if threshold0 {
			w.check("threshold-0", 1, (after.Fallbacks > before.Fallbacks) != noop, "%s: threshold-0 engine fell back = %v on a no-op = %v", label, after.Fallbacks > before.Fallbacks, noop)
		}
		prev, dep, free, grew = got, next, freeNext, len(added) > 0 && len(removed) == 0
	}
	// Under full deployment every route is secure, so taking one AS r out
	// of Full cuts its whole routing subtree, and RunDelta must seed all
	// of it (seedSecureReverse) before its first pass.
	probe := NewEngineLP(g, model, lp, append(slices.Clip(opts), withDeltaThreshold(1))...)
	o, r := probe.RunAttack(d, m, all, atk), asgraph.AS(stepRand(seed, 0).Intn(n))
	less := &Deployment{Full: all.Full.Clone()}
	less.Full.Remove(r)
	cut, before := int64(0), probe.counters
	for v := range o.Secure {
		if o.Secure[v] && routesVia(o, asgraph.AS(v), r) {
			cut += int64(g.Degree(asgraph.AS(v)))
		}
	}
	diff := outcomeDiff(probe.RunDelta(o, nil, []asgraph.AS{r}, less, atk), NewEngineLP(g, model, lp, opts...).RunAttack(d, m, less, atk))
	w.check("removal", 1, diff == "", "AS%d leaving full deployment: %s", r, diff)
	if after := probe.counters; after.Passes > before.Passes {
		w.check("secure-reverse", 1, after.FirstPassVolume-before.FirstPassVolume >= cut, "AS%d leaving full deployment: first pass seeded volume %d, the cut secure routes alone %d", r, after.FirstPassVolume-before.FirstPassVolume, cut)
	}
}

// depSeedAttack is the one-hop hijack plus a helper origin planted only
// under a non-nil deployment: a custom attack whose seeds depend on Dep,
// so no cell under a deployment shares its roots with the baseline run.
type depSeedAttack struct{ helper asgraph.AS }

func (depSeedAttack) Name() string { return "dep-seed" }
func (a depSeedAttack) Seed(s *Seeder) {
	s.OriginateDest()
	s.AnnounceBogus(1)
	if s.Dep != nil {
		s.Originate(a.helper, 2, false, LabelDest)
	}
}

// secureOriginAttack is the one-hop hijack plus a *secure* origin at a
// non-destination: secure routes exist although the destination is
// outside S, so "d ∉ S" alone would wrongly call the cell security-free.
type secureOriginAttack struct{ helper asgraph.AS }

func (secureOriginAttack) Name() string { return "secure-origin" }
func (a secureOriginAttack) Seed(s *Seeder) {
	s.OriginateDest()
	s.AnnounceBogus(1)
	s.Originate(a.helper, 1, true, LabelDest)
}

// stepRand returns the PRNG of one step of a walk case, keyed by (seed,
// step): a splitmix64 stream, which costs nothing to seed.
func stepRand(seed, step int64) *rand.Rand {
	sm := splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(step))
	return rand.New(&sm)
}

type splitmix uint64

func (s *splitmix) Seed(seed int64) { *s = splitmix(seed) }
func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// customAttack is one of the test-only attacks whose seeds depend on the
// deployment or plant a secure origin at helper; only condOriginAttack
// may plant it at the destination d or the attacker m (it skips them).
func customAttack(k int, helper, d, m asgraph.AS) Attack {
	if helper == d || helper == m {
		k = 0
	}
	return []Attack{condOriginAttack{helper}, depSeedAttack{helper}, secureOriginAttack{helper}}[k%3]
}

// caseFailed aborts a corpus case at its first failed check.
type caseFailed struct{}

// walkCorpus runs the walk's tier-1 corpus once per test binary: the
// revival fixture plus a fixed block of seeded cases (fewer under
// -short and the race detector). The tests below that read it each
// require some properties to have held on every case, checked at least
// a minimum number of times.
var walkCorpus = sync.OnceValue(func() walk {
	w := newWalk(func(string) { panic(caseFailed{}) })
	run := func(seed int64, data []byte) {
		defer func() {
			if r := recover(); r != nil && r != any(caseFailed{}) {
				panic(r)
			}
		}()
		w.seed = seed
		checkRunDeltaDifferential(&w, data)
	}
	run(0, revivalScript)
	cases := int64(1000)
	if testing.Short() || raceEnabled {
		cases = 300
	}
	for seed := int64(1); seed <= cases; seed++ {
		run(seed, nil)
	}
	return w
})

// requireWalk fails t unless each property held on every case of the
// walk's corpus and was checked at least min times.
func requireWalk(t *testing.T, min int, props ...string) {
	t.Helper()
	c := walkCorpus()
	for _, p := range props {
		if c.fails[p] > 0 {
			t.Errorf("%s failed on %d cases; the first: %s", p, c.fails[p], c.first[p])
		}
		if c.checks[p] < min {
			t.Errorf("%s checked %d times, want at least %d", p, c.checks[p], min)
		}
	}
}

// TestRunDeltaDifferential: every run equals a fresh engine's, happy
// bounds included, and every security-free one the pair's baseline.
func TestRunDeltaDifferential(t *testing.T) {
	requireWalk(t, 1500, "fresh", "happy-bounds", "secfree-baseline")
}

// TestRunDeltaMatchesFromScratch: so do delta passes on topogen graphs.
func TestRunDeltaMatchesFromScratch(t *testing.T) { requireWalk(t, 40, "internet-delta") }

// TestRunDeltaExternalPrev: so do steps from another engine's prev.
func TestRunDeltaExternalPrev(t *testing.T) { requireWalk(t, 400, "external-prev") }

// TestRunDeltaNoStateLeak: so does an ordinary run after RunDelta.
func TestRunDeltaNoStateLeak(t *testing.T) { requireWalk(t, 400, "noleak") }

// TestRunDeltaRemovalMatchesFromScratch: so do removal steps, and an AS
// leaving full deployment has its whole secure subtree seeded up front.
func TestRunDeltaRemovalMatchesFromScratch(t *testing.T) {
	requireWalk(t, 150, "removal", "secure-reverse")
}

// TestRunDeltaGrowThenShrink: so does a removal right after growth.
func TestRunDeltaGrowThenShrink(t *testing.T) { requireWalk(t, 120, "shrink-after-grow") }

// TestRunDeltaHappyBoundsChained: so does every chained step.
func TestRunDeltaHappyBoundsChained(t *testing.T) { requireWalk(t, 400, "chained") }

// TestRebindMatchesFreshEngine: a rebound engine runs and steps like one
// built for the graph, pricing it alike and falling back as often.
func TestRebindMatchesFreshEngine(t *testing.T) { requireWalk(t, 80, "rebound", "rebind") }

// TestAttackStrategiesEpochResetEquivalence: a long-lived engine that
// ran another pair under another attack equals a fresh one.
func TestAttackStrategiesEpochResetEquivalence(t *testing.T) { requireWalk(t, 1200, "epoch") }

// TestEpochResetResolvedMode: so does one resolving ties, whose offer
// accumulators keep the label of the lowest next hop.
func TestEpochResetResolvedMode(t *testing.T) { requireWalk(t, 500, "epoch-resolved") }

// TestNoAttackProperties: NoAttack routes as normal conditions do.
func TestNoAttackProperties(t *testing.T) { requireWalk(t, 20000, "noattack") }

// TestOriginSpoofStoppedByRPKI: so does the filtered origin spoof (§4.2).
func TestOriginSpoofStoppedByRPKI(t *testing.T) { requireWalk(t, 20000, "rpki") }

// TestSecurityFreeDifferential: SecurityFree meets its definition under
// every model, and a security-free cell is the baseline.
func TestSecurityFreeDifferential(t *testing.T) {
	requireWalk(t, 2000, "secfree-predicate", "secfree-baseline")
}

// TestSecurityFreeDeltaWalk: RunDelta is a no-op exactly on chained free
// → free steps, and a threshold-0 engine falls back on every other one.
func TestSecurityFreeDeltaWalk(t *testing.T) { requireWalk(t, 120, "secfree-noop", "threshold-0") }

// TestQuickEngineInvariants: checkPaper's per-AS invariants.
func TestQuickEngineInvariants(t *testing.T) {
	requireWalk(t, 1500, "bracket", "partition", "secure-at-full", "next-len")
}

// TestQuickFullDeploymentSec1: under full deployment and security 1st,
// a source is happy exactly when it is not doomed (or has no route).
func TestQuickFullDeploymentSec1(t *testing.T) { requireWalk(t, 3000, "full-sec1") }

// TestQuickNormalConditionsReachEveryone: no attacker, no unhappy AS.
func TestQuickNormalConditionsReachEveryone(t *testing.T) { requireWalk(t, 4000, "normal") }

// TestTheorem21MatchesMessageSimulator: bgpsim converges to the engine.
func TestTheorem21MatchesMessageSimulator(t *testing.T) { requireWalk(t, 5000, "thm21") }

// TestTheorem31NoDowngradeWhenSecurityFirst: Theorem 3.1.
func TestTheorem31NoDowngradeWhenSecurityFirst(t *testing.T) { requireWalk(t, 2500, "thm31") }

// TestTheorem61MonotonicitySec3rd: Theorem 6.1.
func TestTheorem61MonotonicitySec3rd(t *testing.T) { requireWalk(t, 8000, "thm61") }

// TestBoundsBracketResolvedOutcome: the bounds bracket the resolved run.
func TestBoundsBracketResolvedOutcome(t *testing.T) { requireWalk(t, 1500, "bracket") }

// FuzzRunDelta holds RunDelta to a fresh engine, and every step to the
// paper, on random graphs, scenarios and signed walks
// (checkRunDeltaDifferential). The fuzzer mutates the seed and the draw
// bytes; the revival fixture is in the seed corpus.
func FuzzRunDelta(f *testing.F) {
	f.Add(int64(0), revivalScript)
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		w := newWalk(func(msg string) { t.Fatal(msg) })
		w.seed = seed
		checkRunDeltaDifferential(&w, data)
	})
}

// TestHierarchyDigest pins the seeded hierarchies the property tests
// draw: every AS's provider, customer and peer lists, for seeds 0–49 at
// four sizes, hash to one digest.
func TestHierarchyDigest(t *testing.T) {
	h := sha256.New()
	for seed := int64(0); seed < 50; seed++ {
		for _, n := range []int{2, 17, 40, 120} {
			g := topogen.Hierarchy(n, rand.New(rand.NewSource(seed)).Intn)
			for v := asgraph.AS(0); int(v) < n; v++ {
				fmt.Fprintln(h, g.Providers(v), g.Customers(v), g.Peers(v))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != "3a90f9da106a3912c861682509a2794156e3322a030066c8a74d0bf0e6e10629" {
		t.Fatalf("seeded hierarchies hash to %s", got)
	}
}
