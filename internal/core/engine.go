package core

import (
	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// Engine computes S*BGP routing outcomes with the staged Fix-Routes
// algorithms of Appendix B. An Engine holds preallocated scratch sized to
// its graph, so a single Engine is cheap to reuse across many
// (attacker, destination, deployment) triples but must not be shared
// between goroutines; the parallel harness gives each worker its own.
//
// Two properties make the per-run hot path cheap:
//
//   - Epoch-stamped stage scratch: per-stage scratch is invalidated by
//     bumping a generation stamp instead of clearing, so starting a
//     stage costs O(1). (The between-run reset of the outcome itself is
//     adaptive — see rollback — but on a connected topology every run
//     fixes all n ASes, so it is one sequential O(n) wipe there; the
//     O(touched) branch only pays off on disconnected graphs.)
//
//   - One-pass candidate accumulation: when an AS is fixed, it offers
//     its route to its still-unfixed neighbors, and each offer is merged
//     immediately into a per-AS accumulator (minimal length, merged
//     happiness label, lowest next hop, secure subset). Fixing an AS
//     reads its accumulator instead of re-scanning its in-neighbors, so
//     each directed edge is visited once per stage rather than twice.
type Engine struct {
	g    *asgraph.Graph
	plan policy.Plan
	// plans caches the stage plans SetModel has switched to, so moving
	// back to a model the engine has served allocates nothing.
	plans [policy.NumModels]policy.Plan

	// resolve selects fully deterministic tiebreaking (lowest next-hop
	// AS index) instead of the three-valued bound labels.
	resolve bool
	// out's five per-AS arrays live in one structure-of-arrays slab
	// allocated at construction (slab.go) and reused by every run.
	out Outcome

	// seeder is the reusable Attack seeding surface: SecurityFree — the
	// one place an attack is seeded — repopulates it instead of
	// allocating one per call (the interface call would otherwise force
	// a heap Seeder every run).
	seeder Seeder

	fixedList []asgraph.AS // ASes fixed so far, in fixing order
	buckets   [][]asgraph.AS
	touched   []asgraph.AS // peer-stage work list
	inTouch   []bool       // carved from the scratch arena (attachScratch)

	// off[u] accumulates the candidate routes offered to u during the
	// current stage; stageEpoch validates entries so starting a stage
	// costs O(1) instead of O(n). Carved from the scratch arena.
	off        []offerAcc
	stageEpoch uint32

	// treeMaxLevel is the highest non-empty bucket level of the tree
	// stage currently running (reset per stage; a field rather than a
	// local so bucketPush stays a closure-free method).
	treeMaxLevel int

	// Incremental-run scratch (RunDelta; see delta.go). inDirty and
	// prevOut are allocated on first use so engines that never run
	// incrementally pay nothing; prevOut holds per-AS snapshots of the
	// previous outcome, valid only at dirty indices. deltaPrev is the
	// in-flight call's prev outcome (the snapshot source); deltaDirty
	// is non-nil only while a delta pass's stages execute: it makes
	// stage seeding iterate the dirty work list instead of scanning
	// every AS.
	prevOut    Outcome
	inDirty    []bool
	dirtyList  []asgraph.AS
	deltaSeeds []seedRec
	// baseSeeds is the baseline (dep == nil) capture SecurityFree
	// compares deltaSeeds against; secFree records whether the current
	// outcome came from a security-free run (see SecurityFree).
	baseSeeds  []seedRec
	secFree    bool
	deltaPrev  *Outcome
	deltaDirty []asgraph.AS
	// deltaFallbacks counts RunDelta calls that crossed the adaptive
	// threshold and re-ran from scratch (tests assert the incremental
	// path actually runs).
	deltaFallbacks int

	// Delta-fallback threshold state. The bound is edge-volume based:
	// dirtyVol accumulates the adjacency degree of every dirty AS, and
	// RunDelta falls back to the from-scratch run once it reaches
	// deltaFrac of the graph's total adjacency volume (deg/totalVol are
	// built lazily alongside inDirty).
	deltaFrac float64
	deg       []int32
	totalVol  int64
	dirtyVol  int64

	// Removal-delta scratch: the memoized secure reverse-reachability
	// classification and its walk stack (see seedSecureReverse).
	reachState []uint8
	reachStack []asgraph.AS
	secDrops   []asgraph.AS

	// Incrementally maintained happy-source bounds of the current
	// outcome: RunDelta updates them from its dirty region, so chained
	// walks read the per-step metric without an O(n) label re-scan.
	// happyValid is cleared by every from-scratch run and recomputed
	// lazily by Engine.HappyBounds.
	happyValid       bool
	happyLo, happyHi int
}

// offerAcc is the per-AS candidate accumulator for one stage. The
// "group" fields describe the candidates at the minimal offered length
// (the set the old per-pop gather used to rebuild); the "any" fields
// track the minimal-length *secure* candidate at any length, needed only
// by peer stages under SecAboveLength, where a longer secure route beats
// a shorter insecure one.
type offerAcc struct {
	ep      uint32     // valid iff ep == engine.stageEpoch
	len     int32      // minimal offered route length
	next    asgraph.AS // lowest-indexed candidate at len
	secNext asgraph.AS // lowest-indexed secure candidate at len

	anyEp   uint32     // valid iff anyEp == engine.stageEpoch
	anyLen  int32      // minimal length among secure candidates
	anyNext asgraph.AS // lowest-indexed secure candidate at anyLen

	label    Label // merged label of the group at len
	secLabel Label // merged label of the secure sub-group at len
	anyLabel Label // merged label of the secure group at anyLen
	secHas   bool  // a secure candidate exists at len
}

// Option configures an Engine.
type Option func(*Engine)

// WithResolvedTiebreak makes the engine resolve every tie with the
// deterministic "lowest next-hop AS index" rule instead of computing the
// three-valued bounds. Used for cross-validation against the
// message-level simulator and for concrete example walk-throughs.
func WithResolvedTiebreak() Option {
	return func(e *Engine) { e.resolve = true }
}

// DefaultDeltaThreshold is the fraction of the graph's total adjacency
// volume at which RunDelta abandons the incremental path and re-runs
// from scratch. The bound is edge-based rather than vertex-based: a
// dirty region is charged the sum of its members' degrees, so a
// handful of dirty Tier 1s (which touch a large share of all edges) is
// judged by the edges it actually costs while thousands of dirty stubs
// stay incremental. The fraction is high because a delta run's
// advantage is not only the skipped edge work: pre-fixed entries also
// skip the per-stage seeding scans and queue traffic, so measured
// break-even sits near full volume — on the committed rollout series a
// delta at 57% of total volume still beats the from-scratch run
// (see BenchmarkRolloutSeries / BenchmarkDeltaThreshold).
const DefaultDeltaThreshold = 0.75

// WithDeltaThreshold sets the delta-fallback bound: RunDelta re-runs
// from scratch once the dirty region's adjacency volume (the sum of the
// dirty ASes' degrees) reaches frac of the graph's total adjacency
// volume. The default is DefaultDeltaThreshold. Values above 1 are
// clamped to 1 (never fall back on volume grounds); frac <= 0 disables
// the incremental path entirely — every RunDelta call becomes a
// from-scratch run, still returning exact results.
func WithDeltaThreshold(frac float64) Option {
	if frac > 1 {
		frac = 1
	}
	return func(e *Engine) { e.deltaFrac = frac }
}

// NewEngine returns an engine for the given graph and security model
// under the standard local-preference policy.
func NewEngine(g *asgraph.Graph, m policy.Model, opts ...Option) *Engine {
	return NewEngineLP(g, m, policy.Standard, opts...)
}

// NewEngineLP returns an engine for the given security model and
// local-preference variant (e.g. policy.LP2 for Appendix K).
func NewEngineLP(g *asgraph.Graph, m policy.Model, lp policy.LocalPref, opts ...Option) *Engine {
	n := g.N()
	e := &Engine{
		g:         g,
		plan:      policy.PlanFor(m, lp),
		deltaFrac: DefaultDeltaThreshold,
	}
	e.out.attachSlab(n)
	e.attachScratch(n)
	for _, o := range opts {
		o(e)
	}
	e.resetAll()
	return e
}

// Graph returns the engine's topology.
func (e *Engine) Graph() *asgraph.Graph { return e.g }

// Rebind points the engine at another graph over the same number of
// ASes, keeping every slab and queue: all per-AS scratch is sized by n
// alone, and the degree table of the delta-fallback bound — the one
// graph-derived cache — is rebuilt if it exists. A warm engine pool can
// therefore follow its evaluations across topologies of one size instead
// of holding an engine set per topology. The engine's current outcome
// describes the old graph: the next call must be a from-scratch run, and
// no outcome computed before the rebind may be passed to RunDelta.
// Rebinding to a graph of a different size panics. Rebind(nil) only lets
// go of the graph — an engine idling in a pool would otherwise keep its
// last job's topology alive — and the engine must be rebound before it
// runs again.
func (e *Engine) Rebind(g *asgraph.Graph) {
	if g != nil && g.N() != len(e.out.Len) {
		panic("core: Rebind to a graph of a different size")
	}
	e.g = g
	if g != nil && e.deg != nil {
		e.buildDegrees()
	}
}

// HappyBounds returns the happy-source bounds of the engine's current
// outcome — the same numbers as Outcome.HappyBounds on it, but
// maintained incrementally: a successful RunDelta adjusts the counts
// from its dirty region in O(dirty) instead of re-scanning every label,
// so long delta chains read their per-step metric essentially for free.
// After a from-scratch run the counts are recomputed lazily on first
// call.
func (e *Engine) HappyBounds() (lo, hi int) {
	if !e.happyValid {
		e.happyLo, e.happyHi = e.out.HappyBounds()
		e.happyValid = true
	}
	return e.happyLo, e.happyHi
}

// Model returns the engine's security model.
func (e *Engine) Model() policy.Model { return e.plan.Model }

// SetModel switches the engine to another security model under its
// local-preference variant. Nothing per-AS depends on the model — only
// the stage plan does — so one engine can serve every model of a grid
// in turn instead of a worker holding a set of slabs per model. Like
// Rebind it invalidates the current outcome as a RunDelta predecessor.
func (e *Engine) SetModel(m policy.Model) {
	if m == e.plan.Model {
		return
	}
	e.plans[e.plan.Model] = e.plan
	if e.plans[m].Stages == nil {
		e.plans[m] = policy.PlanFor(m, e.plan.LP)
	}
	e.plan = e.plans[m]
}

// RunNormal computes the routing outcome toward d under normal conditions
// (no attacker), used for protocol-downgrade accounting and the
// secure-route censuses of Figures 13 and 16.
func (e *Engine) RunNormal(d asgraph.AS, dep *Deployment) *Outcome {
	return e.Run(d, asgraph.None, dep)
}

// Run computes the stable routing outcome when attacker m targets
// destination d with the default strategy — the paper's bogus one-hop
// "m, d" announcement — and the ASes in dep are secure. Pass
// m = asgraph.None for normal conditions. The returned Outcome is owned
// by the engine and valid until the next Run.
//
//sbgp:hotpath
func (e *Engine) Run(d, m asgraph.AS, dep *Deployment) *Outcome {
	return e.RunAttack(d, m, dep, nil)
}

// RunAttack is Run with a pluggable threat model: atk seeds the run's
// route originations (nil means DefaultAttack, the one-hop hijack), and
// the stage schedule then fixes every other AS identically for all
// strategies. It is the sweep's innermost call: //sbgp:hotpath marks it
// (and the other per-cell bodies) for the hotalloc analyzer, which
// rejects any construct that would allocate per run and break the
// AllocsPerRun == 0 tests.
//
//sbgp:hotpath
func (e *Engine) RunAttack(d, m asgraph.AS, dep *Deployment, atk Attack) *Outcome {
	if d == m {
		panic("core: attacker equals destination")
	}
	if atk == nil {
		atk = DefaultAttack
	}
	o := &e.out
	o.Dst, o.Attacker = d, m
	e.happyValid = false
	e.rollback()
	e.fixedList = e.fixedList[:0]

	e.secFree = e.SecurityFree(d, m, dep, atk)
	for _, r := range e.deltaSeeds {
		e.fixRoot(r.v, r.len, r.secure, r.label)
	}
	if !e.fixed(d) {
		panic("core: attack did not seed the destination")
	}

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
	return o
}

// resetAll installs the cleared no-route state in every entry: at
// construction, and whenever rollback judges the sequential wipe cheaper
// than restoring fixedList entry by entry. One sequential pass per slab
// section, not one scattered pass over all five.
func (e *Engine) resetAll() {
	o := &e.out
	for i := range o.Class {
		o.Class[i] = policy.ClassNone
	}
	clear(o.Len)
	clear(o.Secure)
	clear(o.Label)
	for i := range o.Next {
		o.Next[i] = asgraph.None
	}
}

// rollback undoes the previous run's writes. Only fixRoot,
// fixFromOffer, and fixPeerFromOffer write outcome entries, and all
// three record the AS in fixedList, so restoring those entries
// recreates the cleared state exactly, in O(touched) time. When the
// previous run touched a quarter of the graph or more, the scattered
// per-entry writes cost more than a sequential wipe, so the reset
// adaptively takes resetAll there — which is every run on a connected
// topology (all n ASes get fixed; DESIGN.md records the branch counts);
// the per-entry branch serves disconnected graphs, where a run stays
// inside one component.
func (e *Engine) rollback() {
	if 4*len(e.fixedList) >= len(e.out.Class) {
		e.resetAll()
		return
	}
	o := &e.out
	for _, v := range e.fixedList {
		o.Class[v] = policy.ClassNone
		o.Len[v] = 0
		o.Secure[v] = false
		o.Label[v] = LabelNone
		o.Next[v] = asgraph.None
	}
}

// bumpStageEpoch advances the offer-accumulator generation, clearing the
// stamps on the (rare) wraparound so a stale stamp can never alias the
// live epoch.
func (e *Engine) bumpStageEpoch() {
	e.stageEpoch++
	if e.stageEpoch == 0 {
		for i := range e.off {
			e.off[i].ep = 0
			e.off[i].anyEp = 0
		}
		e.stageEpoch = 1
	}
}

func (e *Engine) fixRoot(v asgraph.AS, length int32, secure bool, label Label) {
	o := &e.out
	o.Class[v] = policy.ClassOrigin
	o.Len[v] = length
	o.Secure[v] = secure
	o.Label[v] = label
	o.Next[v] = asgraph.None
	e.fixedList = append(e.fixedList, v)
}

func (e *Engine) fixed(v asgraph.AS) bool { return e.out.Class[v] != policy.ClassNone }

// exportsWide reports whether v's fixed route may be announced to v's
// providers and peers. Under Ex, only customer routes are exported beyond
// customers; origins announce to everyone.
func (e *Engine) exportsWide(v asgraph.AS) bool {
	c := e.out.Class[v]
	return c == policy.ClassCustomer || c == policy.ClassOrigin
}

// candidateSecure reports whether the route u would learn from w is fully
// secure: w's own route must be secure and u must be a full S*BGP
// adopter, able to validate it.
func (e *Engine) candidateSecure(u, w asgraph.AS, dep *Deployment) bool {
	return e.out.Secure[w] && dep.FullSecure(u)
}

// admissible reports whether w's route may be offered to u in this stage.
func (e *Engine) admissible(st policy.Stage, u, w asgraph.AS, dep *Deployment) bool {
	if st.MaxLen > 0 && e.out.Len[w]+1 > int32(st.MaxLen) {
		return false
	}
	if st.SecureOnly && !e.candidateSecure(u, w, dep) {
		return false
	}
	return true
}

// tryOffer merges the admissible candidate route via w into u's
// accumulator for the current stage. It reports whether u's minimal
// offered length changed (first offer, or an improvement), in which case
// the caller must (re)queue u.
func (e *Engine) tryOffer(u, w asgraph.AS, st policy.Stage, dep *Deployment) bool {
	o := &e.out
	acc := &e.off[u]
	l := o.Len[w] + 1
	lbl := o.Label[w]
	var sec bool
	if st.SecureOnly || st.Sec != policy.SecIgnore {
		sec = e.candidateSecure(u, w, dep)
	}
	requeue := acc.ep != e.stageEpoch || l < acc.len
	switch {
	case requeue:
		acc.ep = e.stageEpoch
		acc.len = l
		acc.next = w
		acc.label = lbl
		acc.secHas = sec
		acc.secNext = w
		acc.secLabel = lbl
	case l == acc.len:
		if w < acc.next {
			acc.next = w
			if e.resolve {
				acc.label = lbl
			}
		}
		if !e.resolve && lbl != acc.label {
			acc.label = LabelAmbig
		}
		if sec {
			switch {
			case !acc.secHas:
				acc.secHas = true
				acc.secNext = w
				acc.secLabel = lbl
			default:
				if w < acc.secNext {
					acc.secNext = w
					if e.resolve {
						acc.secLabel = lbl
					}
				}
				if !e.resolve && lbl != acc.secLabel {
					acc.secLabel = LabelAmbig
				}
			}
		}
	}
	// Cross-length secure pool, consulted only by SecAboveLength peer
	// stages (a secure route beats any shorter insecure one there).
	if sec && st.Sec == policy.SecAboveLength {
		switch {
		case acc.anyEp != e.stageEpoch || l < acc.anyLen:
			acc.anyEp = e.stageEpoch
			acc.anyLen = l
			acc.anyNext = w
			acc.anyLabel = lbl
		case l == acc.anyLen:
			if w < acc.anyNext {
				acc.anyNext = w
				if e.resolve {
					acc.anyLabel = lbl
				}
			}
			if !e.resolve && lbl != acc.anyLabel {
				acc.anyLabel = LabelAmbig
			}
		}
	}
	return requeue
}

// fixFromOffer fixes u's route from its accumulated candidates, applying
// the stage's security preference (the SecP step) among the
// minimal-length group. Tree stages fix at the first bucket level with
// any candidate, so only the group fields are consulted.
func (e *Engine) fixFromOffer(u asgraph.AS, class policy.Class, st policy.Stage, dep *Deployment) {
	if e.deltaDirty != nil && !e.inDirty[u] {
		// A delta pass is reviving an AS that was unrouted in prev (only
		// unfixed ASes reach a fix site, and every previously-routed
		// unfixed AS is already dirty). Mark it before the write so its
		// snapshot is intact and the fixpoint check propagates the
		// revival; see delta.go.
		e.markDirty(u)
	}
	acc := &e.off[u]
	full := dep.FullSecure(u)
	length, next, label := acc.len, acc.next, acc.label
	secureChoice := st.SecureOnly
	if !st.SecureOnly && full && st.Sec != policy.SecIgnore && acc.secHas {
		// Among equally good candidates, a full adopter prefers the
		// secure ones (SecP before TB).
		secureChoice = true
		next = acc.secNext
		label = acc.secLabel
	}
	o := &e.out
	o.Class[u] = class
	o.Len[u] = length
	o.Secure[u] = secureChoice && full
	o.Label[u] = label
	o.Next[u] = next
	e.fixedList = append(e.fixedList, u)
}

// fixPeerFromOffer fixes u's peer route. Peer candidates vary in length,
// so under SecAboveLength a full adopter first restricts to the secure
// pool (at any length) before minimizing length; the other placements
// reduce to the same minimal-length group preference as tree stages.
func (e *Engine) fixPeerFromOffer(u asgraph.AS, st policy.Stage, dep *Deployment) {
	if e.deltaDirty != nil && !e.inDirty[u] {
		// Revival of a previously-unrouted AS mid-delta-pass; see
		// fixFromOffer and delta.go.
		e.markDirty(u)
	}
	acc := &e.off[u]
	full := dep.FullSecure(u)
	var (
		length       int32
		next         asgraph.AS
		label        Label
		secureChoice bool
	)
	switch {
	case st.SecureOnly:
		length, next, label, secureChoice = acc.len, acc.next, acc.label, true
	case full && st.Sec == policy.SecAboveLength && acc.anyEp == e.stageEpoch:
		length, next, label, secureChoice = acc.anyLen, acc.anyNext, acc.anyLabel, true
	case full && st.Sec != policy.SecIgnore && acc.secHas:
		length, next, label, secureChoice = acc.len, acc.secNext, acc.secLabel, true
	default:
		length, next, label = acc.len, acc.next, acc.label
	}
	o := &e.out
	o.Class[u] = policy.ClassPeer
	o.Len[u] = length
	o.Secure[u] = secureChoice && full
	o.Label[u] = label
	o.Next[u] = next
	e.fixedList = append(e.fixedList, u)
}

// bucketPush queues u in the bucket for the given route length, growing
// the bucket array as needed (bucket slices are retained across runs, so
// growth is a warm-up cost, not a steady-state one).
func (e *Engine) bucketPush(u asgraph.AS, level int32) {
	l := int(level)
	for len(e.buckets) <= l {
		e.buckets = append(e.buckets, nil)
	}
	e.buckets[l] = append(e.buckets[l], u)
	if l > e.treeMaxLevel {
		e.treeMaxLevel = l
	}
}

// treeTrigger offers w's freshly fixed route to w's still-unfixed
// out-neighbors; tryOffer queues a neighbor only when its minimal
// offered length changes, so duplicate bucket entries are rare.
func (e *Engine) treeTrigger(w asgraph.AS, st policy.Stage, dep *Deployment, up bool) {
	o := &e.out
	if st.SecureOnly && !o.Secure[w] {
		return // an insecure route cannot seed a fully secure one
	}
	var outNbrs []asgraph.AS
	if up {
		if !e.exportsWide(w) {
			return
		}
		outNbrs = e.g.Providers(w)
	} else {
		outNbrs = e.g.Customers(w)
	}
	for _, u := range outNbrs {
		if !e.fixed(u) && e.admissible(st, u, w, dep) && e.tryOffer(u, w, st, dep) {
			e.bucketPush(u, o.Len[w]+1)
		}
	}
}

// treeSeedIn gathers the offers an unfixed u can already receive from
// its fixed in-neighbors and queues u at its minimal offered length.
func (e *Engine) treeSeedIn(u asgraph.AS, st policy.Stage, dep *Deployment, up bool) {
	if st.SecureOnly && !dep.FullSecure(u) {
		return // u cannot validate, so it can never fix here
	}
	o := &e.out
	var inNbrs []asgraph.AS
	if up {
		inNbrs = e.g.Customers(u)
	} else {
		inNbrs = e.g.Providers(u)
	}
	for _, w := range inNbrs {
		if !e.fixed(w) || (up && !e.exportsWide(w)) {
			continue
		}
		if st.SecureOnly && !o.Secure[w] {
			continue
		}
		if e.admissible(st, u, w, dep) {
			e.tryOffer(u, w, st, dep)
		}
	}
	if acc := &e.off[u]; acc.ep == e.stageEpoch {
		e.bucketPush(u, acc.len)
	}
}

// stageBatch is the number of same-length bucket entries fixed before
// their triggers run. Fixing a batch reads each member's accumulator —
// sequential passes over the off/out slabs — and only then walks the
// batch's adjacency lists to make its offers, instead of interleaving
// one accumulator read with one adjacency walk per AS. The split is
// exact: within a bucket level every trigger offers at level+1 only, so
// no offer made by a batch can change a decision inside that batch, and
// accumulator merges commute, so the offer order within the level is
// irrelevant.
const stageBatch = 64

// runTreeStage executes a customer-route stage (up == true: BFS upward
// along customer→provider edges; the FCR/FSCR subroutines) or a
// provider-route stage (up == false: BFS downward along
// provider→customer edges; FPrvR/FSPrvR). Both are breadth-first by total
// route length using a bucket queue, which implements the paper's
// "select the AS with the shortest route" iteration exactly.
func (e *Engine) runTreeStage(st policy.Stage, dep *Deployment, up bool) {
	if len(e.fixedList) == e.g.N() {
		return // every AS already has a route; nothing left to fix
	}
	e.bumpStageEpoch()
	e.treeMaxLevel = 0
	// Seed the bucket queue. Direction-optimized like a bottom-up BFS:
	// early stages have few fixed ASes, so scanning their out-edges is
	// cheap; late stages have few *unfixed* ASes, so scanning only those
	// ASes' in-edges touches far fewer edges than re-walking the whole
	// fixed set's adjacency. Delta passes know the unfixed ASes exactly
	// — they are the dirty work list — so they skip the scan entirely.
	// (Same-length seeding order does not matter: an AS fixed at bucket
	// level L only offers to level L+1, and accumulator merges commute.)
	switch {
	case e.deltaDirty != nil:
		for _, u := range e.deltaDirty {
			if !e.fixed(u) {
				e.treeSeedIn(u, st, dep, up)
			}
		}
	case 2*len(e.fixedList) <= e.g.N():
		for _, w := range e.fixedList {
			e.treeTrigger(w, st, dep, up)
		}
	default:
		for v := 0; v < e.g.N(); v++ {
			if u := asgraph.AS(v); !e.fixed(u) {
				e.treeSeedIn(u, st, dep, up)
			}
		}
	}
	class := policy.ClassProvider
	if up {
		class = policy.ClassCustomer
	}
	for level := 1; level <= e.treeMaxLevel; level++ {
		// Triggers from this level push to level+1 only, so the bucket
		// slice cannot grow under the iteration.
		bucket := e.buckets[level]
		for bi := 0; bi < len(bucket); bi += stageBatch {
			hi := bi + stageBatch
			if hi > len(bucket) {
				hi = len(bucket)
			}
			// Fix phase: resolve each batch member from its accumulator.
			// fixFromOffer appends to fixedList, so the batch's freshly
			// fixed members are exactly fixedList[fixStart:] — stale
			// bucket entries (requeued at a lower level) skip both phases.
			fixStart := len(e.fixedList)
			for _, u := range bucket[bi:hi] {
				if e.fixed(u) {
					continue
				}
				e.fixFromOffer(u, class, st, dep)
			}
			// Trigger phase: walk the batch's adjacency lists together.
			for _, w := range e.fixedList[fixStart:] {
				e.treeTrigger(w, st, dep, up)
			}
		}
		e.buckets[level] = e.buckets[level][:0]
	}
	// Reset any buckets beyond treeMaxLevel that earlier stages grew.
	for l := range e.buckets {
		e.buckets[l] = e.buckets[l][:0]
	}
}

// runPeerStage executes a peer-route stage (FPeeR/FSPeeR). Peer routes
// are a customer-route chain plus one final peer hop, and under Ex a peer
// route is never announced to another peer, so a single relaxation pass
// suffices: no peer route can feed another.
func (e *Engine) runPeerStage(st policy.Stage, dep *Deployment) {
	if len(e.fixedList) == e.g.N() {
		return
	}
	e.bumpStageEpoch()
	e.touched = e.touched[:0]
	// Direction-optimized work-list seeding, as in runTreeStage; delta
	// passes iterate the dirty work list instead of scanning every AS.
	switch {
	case e.deltaDirty != nil:
		for _, u := range e.deltaDirty {
			if !e.fixed(u) {
				e.peerSeedIn(u, st, dep)
			}
		}
	case 2*len(e.fixedList) <= e.g.N():
		for _, w := range e.fixedList {
			if !e.exportsWide(w) || (st.SecureOnly && !e.out.Secure[w]) {
				continue
			}
			for _, u := range e.g.Peers(w) {
				if !e.fixed(u) && e.admissible(st, u, w, dep) && e.tryOffer(u, w, st, dep) && !e.inTouch[u] {
					e.inTouch[u] = true
					e.touched = append(e.touched, u)
				}
			}
		}
		for _, u := range e.touched {
			e.inTouch[u] = false
		}
	default:
		for v := 0; v < e.g.N(); v++ {
			if u := asgraph.AS(v); !e.fixed(u) {
				e.peerSeedIn(u, st, dep)
			}
		}
	}
	for _, u := range e.touched {
		e.fixPeerFromOffer(u, st, dep)
	}
}

// peerSeedIn gathers the peer offers an unfixed u can receive and adds
// u to the relaxation work list if it got any.
func (e *Engine) peerSeedIn(u asgraph.AS, st policy.Stage, dep *Deployment) {
	if st.SecureOnly && !dep.FullSecure(u) {
		return
	}
	offered := false
	for _, w := range e.g.Peers(u) {
		if e.fixed(w) && e.exportsWide(w) && e.admissible(st, u, w, dep) {
			e.tryOffer(u, w, st, dep)
			offered = true
		}
	}
	if offered {
		e.touched = append(e.touched, u)
	}
}
