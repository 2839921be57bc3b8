package sweep

// The chain-major scheduler: one ordering of the cell space and one walk
// over it, which every evaluation — one box or many — runs through the
// one sharded loop (plan.go).
//
//   - A schedule is a permutation of the flattened (deployment × model
//     × destination × attacker) cell space, always chain-major: chains —
//     nested chains or linearized signed-delta forest trees (chain.go) —
//     outermost, then (model, destination, attacker) groups, then chain
//     position — so the cells a RunDelta walk visits are *contiguous*.
//     Shards are cut on the scheduled order, which means a walk
//     straddles at most one boundary per shard instead of scattering
//     one cell into every shard.
//   - Non-incremental grids (and incremental grids whose deployment
//     axis the planner cannot link at all — a singleton axis, or one
//     whose every pairwise delta costs at least a from-scratch run) get
//     the singleton plan: one single-step chain per deployment, in axis
//     order. A block of one-step chains is a deployment's raw cells, so
//     scheduled position p is cell p — the identity order: the exact
//     cell order, shard layout, and checkpoint fingerprint of the
//     pre-scheduler releases, as a plan instead of a second walk.
//   - evaluateRange walks any scheduled range, adding one exact integer
//     (task, lo, hi) triple per valid cell to the worker's accumulator.
//     Partials stay positional, so results are byte-identical at every
//     worker count, shard size and schedule.
//   - A security-free cell — origin-insecure destination, nothing secure
//     anywhere — has its pair's baseline outcome under every deployment
//     and model (core.Engine.SecurityFree), so a plan memoizes one (lo,
//     hi) per (attacker, destination) pair and serves such chain heads
//     from it instead of running them (DESIGN.md "Security-free cells");
//     an engine pool passes the memo on to later plans on the same graph
//     and pairs.
//   - Where a shard boundary does split a chain, the worker carries the
//     chain's tail fixed point across the boundary and resumes with
//     RunDelta instead of re-running the head. RunShards cuts what it
//     dispatches — units, and the strips it slices them into — only at
//     handoff-free positions, so every split boundary is interior to one
//     strip — the producer and consumer of a carried fixed point are
//     always the same goroutine, and the carry needs no lock, no map,
//     and no defensive clone.

import (
	"context"
	"sort"
	"sync/atomic"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
)

// schedule maps scheduled cell positions onto the grid's cell space.
type schedule struct {
	ax   *axes
	plan *chainPlan
	// blockStart[ci] is the scheduled offset of chain ci's block;
	// blockStart[len(chains)] == ax.cells.
	blockStart []int
}

// newSchedule plans the grid's cell order on g: the planner's walks when
// the grid is incremental (IncrementalAuto, the default) and the planner
// links any two deployments by a delta — nested chains and signed-delta
// forests alike (chain.go) — the singleton plan otherwise. The
// degradation is what keeps singleton axes — and every non-incremental
// grid — on the exact pre-scheduler shard layout and checkpoint
// fingerprint; it must be the axis-order plan, not the planner's own
// all-singleton cover, which orders chains smallest-first. The graph
// feeds the planner's edge-volume cost model; the plan is a deterministic
// function of (graph, grid), so distributed workers recomputing it
// independently agree on the layout.
func newSchedule(gr *Grid, ax *axes, g *asgraph.Graph) *schedule {
	if gr.Incremental != IncrementalOff {
		if plan := buildChainPlan(ax.deps, g); plan.deltaEdges > 0 {
			return scheduleOf(ax, plan)
		}
	}
	return scheduleOf(ax, singletonChainPlan(len(ax.deps), fromScratchCost(g)))
}

// scheduleOf lays the plan's chain blocks out over the cell space.
func scheduleOf(ax *axes, plan *chainPlan) *schedule {
	s := &schedule{ax: ax, plan: plan, blockStart: make([]int, len(plan.chains)+1)}
	for ci, ch := range plan.chains {
		s.blockStart[ci+1] = s.blockStart[ci] + len(ch)*ax.nm*ax.nd*ax.na
	}
	return s
}

// identity reports whether the scheduled order equals the raw cell
// order: no chain is longer than one step — with every deployment in
// exactly one chain, as many chains as deployments — and newSchedule
// builds such plans in axis order only. Shard layouts and fingerprints
// are interchangeable with the pre-scheduler ones exactly when this
// holds, so such grids carry no schedule tag.
func (s *schedule) identity() bool { return len(s.plan.chains) == len(s.ax.deps) }

// chainAt returns the chain whose block holds scheduled position p.
func (s *schedule) chainAt(p int) int {
	return sort.SearchInts(s.blockStart[1:], p+1)
}

// handoffFree reports whether a cut at scheduled position p splits no
// group run: position p starts a fresh (chain, model, destination,
// attacker) group, so no chain tail fixed point needs to cross a shard
// boundary placed there — exactly when p is a multiple of the chain
// length within its block, which on single-step chains is everywhere.
// RunShards cuts its chain-ordered units, and the strips inside them,
// at free positions only, which is what makes handoff reuse
// deterministic instead of opportunistic.
func (s *schedule) handoffFree(p int) bool {
	ci := s.chainAt(p)
	return (p-s.blockStart[ci])%len(s.plan.chains[ci]) == 0
}

// nextFree returns the first handoff-free position at or after p (the
// end of the cell space counts as one): where RunShards may cut a
// dispatch strip that wants to end near p.
func (s *schedule) nextFree(p int) int {
	if p >= s.ax.cells {
		return s.ax.cells
	}
	ci := s.chainAt(p)
	clen := len(s.plan.chains[ci])
	if r := (p - s.blockStart[ci]) % clen; r != 0 {
		p += clen - r // a block is a whole number of group runs, so p stays inside it
	}
	return p
}

// callsBefore returns, for every scheduled position p, the number of
// engine calls the walk is predicted to make before p (len cells+1): a
// valid cell is a call unless it is predicted to be served from the
// baseline memo — a security-free head, or a step behind one, of a pair
// whose baseline an earlier position already ran — or to be a no-op
// step between two security-free cells. A cell is predicted
// security-free when its deployment does not secure its destination,
// which is exact for the built-in attacks; the prediction only weighs
// dispatch, never results.
func (s *schedule) callsBefore(gr *Grid) []int32 {
	ax := s.ax
	calls := make([]int32, ax.cells+1)
	filled := make([]bool, ax.nd*ax.na) // pairs whose baseline is predicted memoized
	secures := func(si int, d asgraph.AS) bool {
		dp := ax.deps[si].Dep
		return dp != nil && (dp.Full.Has(d) || dp.Simplex.Has(d))
	}
	p := 0
	for _, ch := range s.plan.chains {
		for g := 0; g < ax.nm*ax.nd*ax.na; g++ {
			pair := g % (ax.nd * ax.na)
			d, m := gr.Destinations[pair/ax.na], gr.Attackers[pair%ax.na]
			ran := false // the engine holds the group's last fixed point
			for pos, step := range ch {
				call := false
				free := !secures(step.si, d)
				switch {
				case m == d:
				case !ran && free && filled[pair]:
				case !ran:
					call, ran, filled[pair] = true, true, filled[pair] || free
				default:
					call = !free || secures(ch[pos-1].si, d)
				}
				calls[p+1] = calls[p]
				if call {
					calls[p+1]++
				}
				p++
			}
		}
	}
	return calls
}

// carry hands a chain's tail fixed point from one shard to the next
// within a dispatch strip. Strips are cut at handoff-free positions
// (Plan.strips), so the shard that is cut off mid-chain and the shard that
// continues it are always evaluated back to back by the same worker:
// the carried Outcome is the engine-owned fixed point itself — no
// clone — and it stays valid because nothing runs on that engine
// between the offer at one shard's end and the take at the next
// shard's start. The continuation then resumes with RunDelta on the
// very outcome the engine already holds, which is its in-place fast
// path. A carry is worker-owned scratch; it must never be shared
// across goroutines.
type carry struct {
	// pos is the scheduled position the carried state continues at, 0
	// when the carry is empty: a continuation is never at position 0.
	pos int
	// out is the engine-owned tail fixed point. It is nil with pos set
	// when the chain's head is still deferred — every step so far was
	// served from the baseline memo, so no engine holds a fixed point
	// and the continuation carries on as a head would.
	out *core.Outcome
}

// reset clears the carry for a new dispatch strip.
func (c *carry) reset() { *c = carry{} }

// take returns the fixed point carried to scheduled position pos — nil
// for a deferred head as for a miss — counting the hit or miss into st,
// and empties the carry. With chain-ordered strip dispatch every boundary
// cut mid-chain is evaluated offer-before-take, so a fresh run never
// misses; a resume can, at unit starts whose predecessor shard completed
// in an earlier run.
func (c *carry) take(pos int, st *ShardStats) *core.Outcome {
	o := c.out
	if c.pos == pos {
		st.HandoffHits++
	} else {
		st.HandoffMisses++
		o = nil
	}
	c.pos, c.out = 0, nil
	return o
}

// offer stores the state a continuation at scheduled position pos will
// resume from: the tail fixed point, or nil for a still-deferred head.
func (c *carry) offer(pos int, o *core.Outcome) {
	c.pos, c.out = pos, o
}

// maxMemoPairs bounds a baseline memo: eight bytes a pair, so at most
// 512 KiB however large the |M|×|D| enumeration (and a pool keeps at most
// maxWarmMemos of them). Pairs beyond the bound are simply not memoized
// and their security-free heads run.
const maxMemoPairs = 1 << 16

// baselineMemo is a table of security-free outcomes: slot di·na+ai holds
// the happy bounds of the (attacker, destination) pair's baseline run,
// which every security-free cell of the pair shares whatever its
// deployment and model (core.Engine.SecurityFree) — a pure function of
// (graph, LP, attack, pair), so it outlives any one evaluation, and an
// EnginePool hands it on to later plans with the same key. Workers of
// every evaluation share it without a lock: a slot is one atomic word,
// zero while empty, written only after a complete run, and every writer
// of a slot stores the same value.
type baselineMemo []atomic.Uint64

// load returns the pair's memoized bounds, if any.
//
//sbgp:hotpath
func (m baselineMemo) load(pair int) (lo, hi int, ok bool) {
	if pair >= len(m) {
		return 0, 0, false
	}
	v := m[pair].Load()
	return int(v >> 31 & (1<<31 - 1)), int(v & (1<<31 - 1)), v != 0
}

// store memoizes the pair's bounds, reporting false for a pair beyond
// the bound; AS counts fit 31 bits each.
//
//sbgp:hotpath
func (m baselineMemo) store(pair, lo, hi int) bool {
	if pair >= len(m) {
		return false
	}
	m[pair].Store(1<<63 | uint64(lo)<<31 | uint64(hi))
	return true
}

// evaluateRange evaluates the scheduled positions [start, end), adding
// each valid (attacker ≠ destination) cell's exact integer happy bounds
// to its task's slot of the worker's accumulator. Cells are visited in
// scheduled order; each group run reuses the previous step's fixed point
// via RunDelta — replaying the step's removed-then-added signed delta in
// one call, so forest walks that shrink a deployment ride the same path
// as grow-only chains — and the worker's carry bridges runs cut by the
// range boundary. A security-free chain head is served from the plan's
// memo when another cell of its pair already ran — in this evaluation, an
// earlier one, or an earlier plan's that shared the memo through a pool —
// and stays deferred — no engine run at all — until the chain's first
// step that is not. The worker counts served heads as memo hits and run
// ones stored as fills. It reports false if ctx was cancelled, in which
// case the accumulated partial must be discarded.
//
//sbgp:hotpath
func (pl *Plan) evaluateRange(ctx context.Context, ws *workerState, start, end int) bool {
	gr, g, s, ax, c, memo := &pl.gr, pl.g, pl.sched, pl.ax, &ws.chainCarry, pl.memo
	// Decompose [start, end) into group runs. Groups are contiguous runs
	// of one chain's positions for a fixed (model, destination,
	// attacker); only the first group of the range can start mid-chain,
	// and only the last can be cut short.
	nd, na := ax.nd, ax.na
	for p := start; p < end; {
		ci := s.chainAt(p)
		bs := s.blockStart[ci]
		ch := s.plan.chains[ci]
		clen := len(ch)
		r := p - bs
		gi := r / clen
		pos0 := r % clen
		gEnd := bs + (gi+1)*clen
		p1 := min(gEnd, end)
		mi := gi / (nd * na)
		pair := gi % (nd * na) // di·na + ai: the pair's memo slot
		di, ai := pair/na, pair%na
		d, m := gr.Destinations[di], gr.Attackers[ai]
		if m == d {
			p = p1
			continue
		}
		e := ws.engine(g, ax.models[mi], gr.LP)
		var prev *core.Outcome
		if pos0 > 0 {
			prev = c.take(p, &ws.stats)
		}
		posEnd := pos0 + (p1 - p)
		for pos := pos0; pos < posEnd; pos++ {
			// A group run covers up to a whole chain of engine runs —
			// re-check the context per step so cancellation stays
			// prompt.
			if ctx.Err() != nil {
				return false
			}
			step := ch[pos]
			dep := ax.deps[step.si].Dep
			lo, hi, served := 0, 0, false
			if prev == nil {
				// A head, or a step behind a deferred one.
				free := e.SecurityFree(d, m, dep, gr.Attack)
				if free {
					lo, hi, served = memo.load(pair)
				}
				if served {
					ws.stats.MemoHits++
				} else {
					prev = e.RunAttack(d, m, dep, gr.Attack)
					lo, hi = e.HappyBounds()
					if free && memo.store(pair, lo, hi) {
						ws.stats.MemoFills++
					}
				}
			} else {
				prev = e.RunDelta(prev, step.added, step.removed, dep, gr.Attack)
				lo, hi = e.HappyBounds()
			}
			ws.acc.add((step.si*ax.nm+mi)*ax.nd+di, lo, hi)
		}
		if p1 < gEnd {
			c.offer(p1, prev)
		}
		p = p1
	}
	return true
}
