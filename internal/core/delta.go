package core

import (
	"slices"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// This file implements the incremental evaluation path: RunDelta
// recomputes a routing outcome after a deployment changes by a few ASes
// — growing, shrinking, or both at once — reusing the previous
// deployment's fixed point instead of re-running every stage over the
// whole graph.
//
// The correctness argument rests on a locality property of the staged
// Fix-Routes algorithms: an AS's final outcome (class, length, security,
// label, next hop) is a deterministic function of its own deployment
// flags and the offers its neighbors make it. Offers flow along single
// edges, a candidate's admissibility in a stage depends only on the
// offering neighbor's final class/length/security, and within a stage
// the bucket queue orders work by route length, never by discovery
// time. The deployment is read only by the AS making the choice
// (FullSecure(u)) and by root seeding. So if every neighbor that offers
// to u, or did, is unchanged and u's own flags are unchanged, u's
// outcome is unchanged.
//
// RunDelta exploits the contrapositive: it maintains a dirty set — an
// overapproximation of the ASes whose outcome may differ from prev —
// pre-fixes everything outside it with the previous outcome, re-runs
// the stage schedule over the dirty region only, and then verifies the
// overapproximation: any dirty AS whose outcome actually changed must
// have its receivers dirty too (markReceiversDirty). If not, or if the
// pass revived an AS unrouted in prev, the set grows and the pass
// repeats; at the fixpoint the result equals a from-scratch run
// exactly. A from-scratch run is itself the degenerate fixpoint, so the
// path can fall back to it whenever the dirty region grows past an
// adaptive threshold.

// seedRec is one captured root origination: the outcome entry an Attack
// plants before the stage schedule runs.
type seedRec struct {
	v      asgraph.AS
	len    int32
	secure bool
	label  Label
}

// SecurityFree reports whether RunAttack(d, m, dep, atk) is a
// security-free run — no root atk plants is secure, and the roots are
// exactly those of the pair's baseline run (dep == nil) — without running
// it or touching the engine's outcome. With no secure root no route is
// ever secure, so candidateSecure is never true, no secure-only stage
// fixes anyone, and neither the deployment's flags nor the model's SecP
// placement is ever consulted: the outcome equals RunAttack(d, m, nil,
// atk) under every deployment and every security model (DESIGN.md
// "Security-free cells"). Judging the captured roots instead of asking
// whether d ∈ S keeps the answer sound for any Attack: one that seeds
// conditionally on Dep fails the comparison, one that plants a secure
// origin anywhere fails the scan.
//
// The roots captured under dep stay in e.deltaSeeds; RunAttack and
// RunDelta, the predicate's other callers, plant and compare them.
//
//sbgp:hotpath
func (e *Engine) SecurityFree(d, m asgraph.AS, dep *Deployment, atk Attack) bool {
	if atk == nil {
		atk = DefaultAttack
	}
	e.deltaSeeds = e.deltaSeeds[:0]
	e.seeder = Seeder{capture: &e.deltaSeeds, Dst: d, Attacker: m, Dep: dep}
	atk.Seed(&e.seeder)
	for _, r := range e.deltaSeeds {
		if r.secure {
			return false
		}
	}
	if dep == nil {
		return true
	}
	e.baseSeeds = e.baseSeeds[:0]
	e.seeder = Seeder{capture: &e.baseSeeds, Dst: d, Attacker: m}
	atk.Seed(&e.seeder)
	return slices.Equal(e.deltaSeeds, e.baseSeeds)
}

// DeploymentDelta returns the signed capability delta from prev to
// next, the exact lists RunDelta must be told about. added holds the
// ASes that gained a capability: joined the Full set (they now validate
// and re-sign), or newly entered the origin-secure union Full ∪ Simplex.
// removed holds the ASes that lost one: left Full, or dropped out of
// the union entirely. Capability moves that change nothing — a
// full-deployment AS also joining Simplex, or shedding a redundant
// Simplex membership while in Full — appear in neither list, and a
// simplex→full promotion is a pure addition while a full→simplex
// demotion is a pure removal. A nil deployment is the empty S = ∅
// baseline; next is nested over prev (the shape of a growing rollout)
// exactly when removed is empty.
func DeploymentDelta(prev, next *Deployment) (added, removed []asgraph.AS) {
	var pf, ps, nf, ns *asgraph.Set
	if prev != nil {
		pf, ps = prev.Full, prev.Simplex
	}
	if next != nil {
		nf, ns = next.Full, next.Simplex
	}
	added = nf.MembersNotIn(pf)
	removed = pf.MembersNotIn(nf)
	for _, v := range ns.MembersNotIn(ps) {
		if !pf.Has(v) && !nf.Has(v) {
			added = append(added, v)
		}
	}
	for _, v := range ps.MembersNotIn(ns) {
		if !pf.Has(v) && !nf.Has(v) {
			removed = append(removed, v)
		}
	}
	return added, removed
}

// RunDelta computes the stable routing outcome for the same scenario as
// prev — destination, attacker, and attack strategy unchanged, on this
// engine's graph, model, and local-preference variant — under the
// changed deployment dep, which must equal prev's deployment plus the
// ASes in added minus the ASes in removed (DeploymentDelta computes
// exactly these lists). A growing rollout passes removed = nil; a
// shrinking one passes added = nil; a step between two incomparable
// deployments passes both, a remove-then-add step in a single call.
// prev may be the engine's own outcome from the immediately preceding
// run — the common case in rollout chains, and the fastest one.
//
// The result is exactly the outcome RunAttack(prev.Dst, prev.Attacker,
// dep, atk) would compute. On a chained prev that only grows, stage
// work and bookkeeping are both proportional to the dirty region. O(n)
// costs remain elsewhere: a removal, or a dropped secure root, adds one
// memoized walk over prev's secure routes; an external prev costs one
// copy to install and one scan for vanished roots; and the next
// from-scratch run wipes every entry. When the dirty region's
// adjacency volume reaches the engine's delta threshold
// (DefaultDeltaThreshold: half the graph's edge volume), RunDelta falls
// back to the from-scratch run — while still seeding the region, if it
// gets there that early. Like Run, the returned Outcome is owned by the
// engine and valid until the next run.
//
//sbgp:hotpath
func (e *Engine) RunDelta(prev *Outcome, added, removed []asgraph.AS, dep *Deployment, atk Attack) *Outcome {
	n := e.g.N()
	if len(prev.Class) != n {
		panic("core: RunDelta outcome belongs to a different graph")
	}
	if atk == nil {
		atk = DefaultAttack
	}
	d, m := prev.Dst, prev.Attacker

	// The lazily built delta scratch comes first, so an engine prices its
	// graph the same whether or not its first steps short-circuit below.
	e.resetDirty()
	// Capture the run's root originations under the new deployment
	// without touching engine state: roots are compared against prev to
	// seed the dirty set and re-planted verbatim on every pass.
	free := e.SecurityFree(d, m, dep, atk)
	if free && e.secFree && prev == &e.out {
		// Both ends of the step are security-free, so both equal the
		// pair's baseline outcome: the fixed point the engine holds is
		// already the answer, cached happy bounds included. No stage
		// work of either kind runs, so this is not a fallback.
		e.counters.NoOps++
		return prev
	}
	seededDst := false
	for _, r := range e.deltaSeeds {
		if r.v == d {
			seededDst = true
		}
	}
	if !seededDst {
		panic("core: attack did not seed the destination")
	}

	// Initial dirty set: the ASes whose deployment flags changed (only
	// their own choice reads them) and their route's receivers, plus
	// any root whose origination changed (e.g. the destination turning
	// origin-secure) and its receivers, which are all its neighbors.
	// markDirty snapshots prev's entry for each AS as it is marked, so
	// prev must be installed as the comparison source first.
	// The seeding itself stops at the fallback bound: a step that
	// dirties past it falls back anyway, and marking the rest of its
	// region would only add to the from-scratch run it ends in.
	e.deltaPrev = prev
	defer func() { e.deltaPrev = nil }()
	for _, list := range [2][]asgraph.AS{added, removed} {
		for _, a := range list {
			e.markDirty(a)
			e.markReceiversDirty(a, prev.Class[a], prev.Class[a])
			if e.overDeltaThreshold() {
				return e.fallBack(d, m, dep, atk, false)
			}
		}
	}
	e.secDrops = e.secDrops[:0]
	for _, r := range e.deltaSeeds {
		if prev.Class[r.v] != policy.ClassOrigin || prev.Len[r.v] != r.len ||
			prev.Secure[r.v] != r.secure || prev.Label[r.v] != r.label ||
			prev.Next[r.v] != asgraph.None {
			e.markDirty(r.v)
			e.markReceiversDirty(r.v, policy.ClassOrigin, policy.ClassOrigin)
		}
		if prev.Secure[r.v] && !r.secure {
			e.secDrops = append(e.secDrops, r.v)
		}
	}
	// The mirror case: a root that existed in prev but is no longer
	// seeded (a deployment-dependent custom Attack may plant origins
	// conditionally). It must be recomputed as an ordinary AS, and its
	// disappearance can influence its neighbors.
	//
	// A chained prev's roots are the ones the engine last planted
	// (outSeeds); an external prev's are found by a scan.
	//
	// (ASes *unrouted* in prev need no seeding here: they hold no
	// pre-fixed value, and if a pass revives one — a neighbor's
	// route-class flip re-enabling an export that never reached it —
	// the fix sites mark it dirty just before the first write, and the
	// pass counts as grown, so the next pass seeds it.)
	if prev == &e.out {
		for _, r := range e.outSeeds {
			e.markVanished(prev, r.v)
		}
	} else {
		for v := range prev.Class {
			if prev.Class[v] == policy.ClassOrigin {
				e.markVanished(prev, asgraph.AS(v))
			}
		}
	}
	// Removals invalidate secure routes far beyond the removed ASes'
	// neighborhoods: every AS whose secure route in prev traverses a
	// removed AS (or ends at a root whose origin security dropped) may
	// lose it. Seed the whole affected region up front so the first
	// pass converges, instead of the fixpoint check crawling the
	// invalidation one hop per pass.
	if (len(removed) > 0 || len(e.secDrops) > 0) && !e.overDeltaThreshold() {
		e.seedSecureReverse(prev, removed)
	}

	for pass := 0; ; pass++ {
		// Adaptive fallback. Checked before any engine state is touched
		// on the first pass, so an oversized delta costs nothing extra;
		// after a pass, fixedPartial sends RunAttack's reset down the
		// full wipe, so it remains sound.
		if e.overDeltaThreshold() {
			return e.fallBack(d, m, dep, atk, pass > 0)
		}
		if pass == 0 {
			e.counters.FirstPassVolume += e.dirtyVol
		}
		if pass == 0 && prev != &e.out {
			e.installPrev(prev)
		}
		e.out.Dst, e.out.Attacker = d, m
		// Capture the happy-source counts of prev (the installed base)
		// before any entry is rewritten; the successful return updates
		// them from the dirty region so chained walks never re-scan all
		// n labels.
		e.HappyBounds()
		e.installDelta()
		e.counters.Passes++
		e.deltaDirty = e.dirtyList
		passStart := len(e.dirtyList)
		for _, st := range e.plan.Stages {
			switch st.Class {
			case policy.ClassCustomer:
				e.runTreeStage(st, dep, true)
			case policy.ClassProvider:
				e.runTreeStage(st, dep, false)
			case policy.ClassPeer:
				e.runPeerStage(st, dep)
			}
		}
		e.deltaDirty = nil
		// Fixpoint check: every AS whose outcome changed must have its
		// receivers dirty, or the change could have influenced a
		// pre-fixed AS. Grow and re-run until nothing new is marked. A
		// revival counts as growth: a trigger inside one stage revived
		// the AS, so only the next pass gathers its earlier offers.
		grown := len(e.dirtyList) > passStart
		limit := len(e.dirtyList)
		for i := 0; i < limit; i++ {
			v := e.dirtyList[i]
			if e.changedFromPrev(v) && e.markReceiversDirty(v, e.prevOut.Class[v], e.out.Class[v]) {
				grown = true
			}
		}
		if !grown {
			// Emit the metric as a byproduct: adjust the happy-source
			// counts by the dirty region's label changes. Pre-fixed ASes
			// kept prev's labels exactly, and every changed AS is dirty
			// (the fixpoint guarantee), so the adjustment is complete.
			for _, v := range e.dirtyList {
				plo, phi := happyContrib(e.prevOut.Label[v], v, d, m)
				nlo, nhi := happyContrib(e.out.Label[v], v, d, m)
				e.happyLo += nlo - plo
				e.happyHi += nhi - phi
			}
			e.secFree = free
			e.counters.DeltaSteps++
			e.counters.DirtyVolume += e.dirtyVol
			return &e.out
		}
	}
}

// fallBack abandons a RunDelta call for the from-scratch run, counting
// the fallback as late when a delta pass already ran, and the volume
// the first pass had seeded when it never ran.
func (e *Engine) fallBack(d, m asgraph.AS, dep *Deployment, atk Attack, late bool) *Outcome {
	e.counters.Fallbacks++
	if late {
		e.counters.LateFallbacks++
	} else {
		e.counters.FirstPassVolume += e.dirtyVol
	}
	return e.RunAttack(d, m, dep, atk)
}

// GraphVolume returns the total adjacency edge-volume of g: the summed
// degree of every AS across all three edge kinds (each link counted
// from both ends). It is the denominator of the delta-threshold
// fallback (overDeltaThreshold) and the unit in which the sweep
// planner prices a from-scratch run.
func GraphVolume(g *asgraph.Graph) int64 {
	var vol int64
	for v := 0; v < g.N(); v++ {
		vol += int64(g.Degree(asgraph.AS(v)))
	}
	return vol
}

// DeploymentDeltaVolume returns the adjacency edge-volume of the delta
// DeploymentDelta would return — the summed degree of the ASes in its
// two lists — computed without materializing them: the four terms
// mirror DeploymentDelta's four cases (Full joins, Full leaves, and the
// origin-secure-union joins and leaves outside both Full sets). It is a
// distance between deployments, the sweep planner's forest probes every
// candidate pair with it — O(k²) per grid — and it must stay
// allocation-free.
func DeploymentDeltaVolume(g *asgraph.Graph, prev, next *Deployment) int64 {
	var pf, ps, nf, ns *asgraph.Set
	if prev != nil {
		pf, ps = prev.Full, prev.Simplex
	}
	if next != nil {
		nf, ns = next.Full, next.Simplex
	}
	return g.DiffVolume(nf, pf, nil, nil) +
		g.DiffVolume(pf, nf, nil, nil) +
		g.DiffVolume(ns, ps, pf, nf) +
		g.DiffVolume(ps, ns, pf, nf)
}

// DeploymentSeedVolume is the adjacency edge-volume RunDelta's first
// pass seeds for the step prev → next whatever the scenario: the ASes
// DeploymentDelta would list and, as the receivers every AS offers to,
// their customers, each counted once. Providers and peers (marked only
// behind a customer route), changed roots and the secure routes a
// removal invalidates come on top, and depend on the scenario. seen is
// caller scratch sized for g; it is left empty. The sweep planner prices
// walk steps with this probe, so it must stay allocation-free.
func DeploymentSeedVolume(g *asgraph.Graph, prev, next *Deployment, seen *asgraph.Set) int64 {
	var pf, ps, nf, ns *asgraph.Set
	if prev != nil {
		pf, ps = prev.Full, prev.Simplex
	}
	if next != nil {
		nf, ns = next.Full, next.Simplex
	}
	vol := g.DiffSeedVolume(nf, pf, nil, nil, seen) +
		g.DiffSeedVolume(pf, nf, nil, nil, seen) +
		g.DiffSeedVolume(ns, ps, pf, nf, seen) +
		g.DiffSeedVolume(ps, ns, pf, nf, seen)
	seen.Clear()
	return vol
}

// OriginSecureFlips returns the number of ASes that are origin-secure
// (in Full ∪ Simplex) under exactly one of prev and next: the
// destinations for which the step changes a root's security, and with
// it every secure route the engine holds.
func OriginSecureFlips(prev, next *Deployment) int {
	var pf, ps, nf, ns *asgraph.Set
	if prev != nil {
		pf, ps = prev.Full, prev.Simplex
	}
	if next != nil {
		nf, ns = next.Full, next.Simplex
	}
	return asgraph.UnionDiffLen(pf, ps, nf, ns)
}

// overDeltaThreshold reports whether the dirty region has grown past
// the adaptive fallback bound. The default bound is edge-volume based —
// the summed degree of the dirty ASes against deltaFrac of the graph's
// total adjacency volume — because stage work is proportional to the
// edges incident to the dirty region, not to its vertex count: one
// dirty Tier 1 costs thousands of stub-sized deltas.
func (e *Engine) overDeltaThreshold() bool {
	return float64(e.dirtyVol) >= e.deltaFrac*float64(e.totalVol)
}

// happyContrib is one AS's contribution to the happy-source bounds
// (Outcome.HappyBounds), zero for the destination and the attacker.
func happyContrib(lbl Label, v, d, m asgraph.AS) (lo, hi int) {
	if v == d || v == m {
		return 0, 0
	}
	switch lbl {
	case LabelDest:
		return 1, 1
	case LabelAmbig:
		return 0, 1
	}
	return 0, 0
}

// Secure reverse-reachability classification states (seedSecureReverse).
const (
	reachUnknown uint8 = iota
	reachClean
	reachAffected
)

// seedSecureReverse marks dirty every AS whose secure route in prev
// runs through a removed AS or ends at a root whose origin security
// dropped (e.secDrops). Secure routes form forests along Next pointers
// — Secure[v] implies Secure[Next[v]] — so one memoized walk over the
// secure region classifies every AS in O(n): each chain is followed
// until it reaches an already-classified AS, a source, or its origin,
// and the verdict is written back along the walked prefix. Correctness
// never depends on this seed (the fixpoint check would grow the dirty
// set to the same closure); it exists so a removal converges in one
// pass instead of crawling the invalidation a hop per pass.
func (e *Engine) seedSecureReverse(prev *Outcome, removed []asgraph.AS) {
	n := len(prev.Class)
	if e.reachState == nil {
		e.reachState = make([]uint8, n)
	}
	st := e.reachState
	for i := range st {
		st[i] = reachUnknown
	}
	for _, v := range removed {
		st[v] = reachAffected
	}
	for _, v := range e.secDrops {
		st[v] = reachAffected
	}
	stack := e.reachStack[:0]
	for v := 0; v < n; v++ {
		if !prev.Secure[v] || st[v] != reachUnknown {
			continue
		}
		u := asgraph.AS(v)
		stack = stack[:0]
		for st[u] == reachUnknown {
			nx := prev.Next[u]
			if nx == asgraph.None || !prev.Secure[nx] {
				// A secure origin (or a defensive stop at an insecure
				// hop, which the security invariant rules out) that is
				// not itself a source: the chain survives.
				st[u] = reachClean
				break
			}
			stack = append(stack, u)
			u = nx
		}
		verdict := st[u]
		for _, w := range stack {
			st[w] = verdict
		}
	}
	e.reachStack = stack
	for v := 0; v < n; v++ {
		if st[v] == reachAffected && prev.Secure[v] {
			e.markDirty(asgraph.AS(v))
			e.markReceiversDirty(asgraph.AS(v), prev.Class[v], prev.Class[v])
		}
	}
}

// resetDirty clears the dirty-set scratch from any previous RunDelta —
// including one abandoned mid-closure by a fallback or a cancelled
// sweep — so every call starts clean.
func (e *Engine) resetDirty() {
	if e.inDirty == nil {
		n := e.g.N()
		// One arena for the dirty bitmap, the degree table, and the
		// reverse-reachability states; one slab for the per-AS snapshot
		// outcome. Both live for the engine's lifetime.
		e.attachDeltaScratch(n)
		e.prevOut.attachSlab(n)
		e.buildDegrees()
	}
	for _, v := range e.dirtyList {
		e.inDirty[v] = false
	}
	e.dirtyList = e.dirtyList[:0]
	e.dirtyVol = 0
}

// buildDegrees fills the per-AS adjacency degrees and their total, the
// units of the edge-volume fallback bound (overDeltaThreshold) — the
// engine's one graph-derived cache, rebuilt by Rebind.
func (e *Engine) buildDegrees() {
	e.totalVol = 0
	for v := range e.deg {
		d := e.g.Degree(asgraph.AS(v))
		e.deg[v] = int32(d)
		e.totalVol += int64(d)
	}
}

// markDirty adds v to the dirty set, reporting whether it was new. It
// snapshots prev's entry for v at marking time — the only moment it is
// guaranteed intact even when prev aliases the engine's own outcome:
// stages only ever write unfixed entries, and an unfixed entry is
// either already dirty or gets marked (through this function) by the
// fix sites immediately before its first write, so a newly marked AS
// still holds its previous value. Keeping the snapshot per dirty AS
// instead of copying all five n-length arrays is what keeps RunDelta's
// bookkeeping proportional to the dirty region.
func (e *Engine) markDirty(v asgraph.AS) bool {
	if e.inDirty[v] {
		return false
	}
	e.inDirty[v] = true
	e.dirtyList = append(e.dirtyList, v)
	e.dirtyVol += int64(e.deg[v])
	p, po := e.deltaPrev, &e.prevOut
	po.Class[v] = p.Class[v]
	po.Len[v] = p.Len[v]
	po.Secure[v] = p.Secure[v]
	po.Label[v] = p.Label[v]
	po.Next[v] = p.Next[v]
	return true
}

// markReceiversDirty marks every AS that v's route can reach in one
// offer, when v's class moves from was to is, reporting whether any was
// newly marked. v offers to its customers whatever its class, and to
// its providers and peers only while it holds a customer route or is an
// origin (exportsWide); no other neighbor reads v's outcome.
func (e *Engine) markReceiversDirty(v asgraph.AS, was, is policy.Class) bool {
	grown := false
	for _, u := range e.g.Customers(v) {
		grown = e.markDirty(u) || grown
	}
	if !exportsWide(was) && !exportsWide(is) {
		return grown
	}
	for _, u := range e.g.Providers(v) {
		grown = e.markDirty(u) || grown
	}
	for _, u := range e.g.Peers(v) {
		grown = e.markDirty(u) || grown
	}
	return grown
}

// installPrev installs an external prev as the engine's outcome (the
// pre-fixed base every delta pass starts from). When prev aliases the
// engine's own outcome — a chained RunDelta — the caller skips this
// entirely: the base is already in place, and per-AS snapshots taken
// by markDirty carry the comparison values.
func (e *Engine) installPrev(prev *Outcome) {
	// The engine's cached happy counts (if any) described its previous
	// outcome, not prev; force a recompute from the installed base.
	e.happyValid = false
	o := &e.out
	copy(o.Class, prev.Class)
	copy(o.Len, prev.Len)
	copy(o.Secure, prev.Secure)
	copy(o.Label, prev.Label)
	copy(o.Next, prev.Next)
}

// installDelta prepares one delta pass: every dirty AS is cleared back
// to the no-route state (pre-fixed ASes keep the previous outcome) and
// the captured roots are re-planted. fixedList restarts empty and will
// list only the pass's own fixes: the pass seeds its stages from the
// dirty list, not from fixedList, and fixedPartial makes the next
// rollback wipe every entry instead of restoring fixedList's.
func (e *Engine) installDelta() {
	o := &e.out
	for _, v := range e.dirtyList {
		o.Class[v] = policy.ClassNone
		o.Len[v] = 0
		o.Secure[v] = false
		o.Label[v] = LabelNone
		o.Next[v] = asgraph.None
	}
	for _, r := range e.deltaSeeds {
		o.Class[r.v] = policy.ClassOrigin
		o.Len[r.v] = r.len
		o.Secure[r.v] = r.secure
		o.Label[r.v] = r.label
		o.Next[r.v] = asgraph.None
	}
	e.outSeeds = e.outSeeds[:0]
	e.outSeeds = append(e.outSeeds, e.deltaSeeds...)
	e.fixedList = e.fixedList[:0]
	e.fixedPartial = true
}

// markVanished marks v, a root of prev, dirty with its receivers if
// this call's seeding no longer plants it.
func (e *Engine) markVanished(prev *Outcome, v asgraph.AS) {
	for _, r := range e.deltaSeeds {
		if r.v == v {
			return
		}
	}
	e.markDirty(v)
	e.markReceiversDirty(v, policy.ClassOrigin, policy.ClassOrigin)
	if prev.Secure[v] {
		e.secDrops = append(e.secDrops, v)
	}
}

// changedFromPrev reports whether v's outcome differs from the
// installed snapshot in any field.
func (e *Engine) changedFromPrev(v asgraph.AS) bool {
	o, po := &e.out, &e.prevOut
	return o.Class[v] != po.Class[v] || o.Len[v] != po.Len[v] ||
		o.Secure[v] != po.Secure[v] || o.Label[v] != po.Label[v] ||
		o.Next[v] != po.Next[v]
}
