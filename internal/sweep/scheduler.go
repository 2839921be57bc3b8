package sweep

// The chain-major scheduler: one ordering of the cell space and one walk
// over it, shared by the flat and the sharded loop (plan.go).
//
//   - A schedule is a permutation of the flattened (deployment × model
//     × destination × attacker) cell space. Incremental grids order it
//     chain-major: chains — nested chains or linearized signed-delta
//     forest trees (chain.go) — outermost, then (model, destination,
//     attacker) groups, then chain position — so the cells a RunDelta
//     walk visits are *contiguous*. Shards are cut on the scheduled
//     order, which means a walk straddles at most one boundary per
//     shard instead of scattering one cell into every shard.
//   - Non-incremental grids (and incremental grids whose deployment
//     axis the planner cannot link at all — a singleton axis, or one
//     whose every pairwise delta costs at least a from-scratch run)
//     keep the identity schedule: the exact cell order, shard layout,
//     and checkpoint fingerprint of the pre-scheduler releases.
//   - evaluateRange walks any scheduled range, emitting one exact
//     integer (task, lo, hi) triple per valid cell. Partials stay
//     positional, so results remain byte-identical to the unscheduled
//     evaluation at every worker count and shard size.
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

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
)

// schedule maps scheduled cell positions onto the grid's cell space. A
// nil plan is the identity schedule.
type schedule struct {
	ax   *axes
	plan *chainPlan
	// blockStart[ci] is the scheduled offset of chain ci's block;
	// blockStart[len(chains)] == ax.cells. Chain-major only.
	blockStart []int

	// Planner cost-model totals for one (model, destination, attacker)
	// group walk, surfaced through ShardStats: from-scratch heads,
	// RunDelta edges, and the predicted adjacency edge-volume. On the
	// identity schedule every deployment is a head.
	planHeads        int
	planDeltaEdges   int
	planPredictedVol int64
}

// newSchedule plans the grid's cell order on g: chain-major when the
// grid is incremental (IncrementalAuto, the default) and the
// planner links any two deployments by a delta — nested chains and
// signed-delta forests alike (chain.go) — the identity order otherwise.
// The degradation to identity is what keeps singleton axes — and every
// non-incremental grid — on the exact pre-scheduler shard layout and
// checkpoint fingerprint. The graph feeds the planner's edge-volume
// cost model; the plan is a deterministic function of (graph, grid), so
// distributed workers recomputing it independently agree on the layout.
func newSchedule(gr *Grid, ax *axes, g *asgraph.Graph) *schedule {
	s := &schedule{ax: ax, planHeads: len(ax.deps)}
	if gr.Incremental == IncrementalOff {
		s.planPredictedVol = int64(s.planHeads) * fromScratchCost(g)
		return s
	}
	plan := buildChainPlan(ax.deps, g)
	s.planHeads = plan.heads
	s.planDeltaEdges = plan.deltaEdges
	s.planPredictedVol = plan.predictedVol
	chained := false
	for _, ch := range plan.chains {
		if len(ch) > 1 {
			chained = true
			break
		}
	}
	if !chained {
		return s
	}
	s.plan = plan
	s.blockStart = make([]int, len(plan.chains)+1)
	for ci, ch := range plan.chains {
		s.blockStart[ci+1] = s.blockStart[ci] + len(ch)*ax.nm*ax.nd*ax.na
	}
	return s
}

// identity reports whether the scheduled order equals the raw cell
// order (shard layouts and fingerprints are interchangeable with the
// pre-scheduler ones exactly when this holds).
func (s *schedule) identity() bool { return s.plan == nil }

// chainAt returns the chain whose block holds scheduled position p.
func (s *schedule) chainAt(p int) int {
	return sort.SearchInts(s.blockStart[1:], p+1)
}

// handoffFree reports whether a cut at scheduled position p splits no
// group run: position p starts a fresh (chain, model, destination,
// attacker) group, so no chain tail fixed point needs to cross a shard
// boundary placed there. On the identity schedule there are no group
// runs and every boundary is free; chain-major boundaries are free
// exactly when p is a multiple of the chain length within its block.
// RunShards cuts its chain-ordered units, and the strips inside them,
// at free positions only, which is what makes handoff reuse
// deterministic instead of opportunistic.
func (s *schedule) handoffFree(p int) bool {
	if s.plan == nil {
		return true
	}
	ci := s.chainAt(p)
	return (p-s.blockStart[ci])%len(s.plan.chains[ci]) == 0
}

// nextFree returns the first handoff-free position at or after p (the
// end of the cell space counts as one): where RunShards may cut a
// dispatch strip that wants to end near p.
func (s *schedule) nextFree(p int) int {
	if s.plan == nil || p >= s.ax.cells {
		return min(p, s.ax.cells)
	}
	ci := s.chainAt(p)
	clen := len(s.plan.chains[ci])
	if r := (p - s.blockStart[ci]) % clen; r != 0 {
		p += clen - r // a block is a whole number of group runs, so p stays inside it
	}
	return p
}

// numRanges returns how many dispatch units the flat evaluator splits
// the schedule into: one per (deployment, model, destination) task on
// the identity schedule — the historical granularity — and one per
// (chain, model, destination) walk on a chain-major schedule, so every
// RunDelta chain stays within a single worker.
func (s *schedule) numRanges() int {
	if s.plan == nil {
		return s.ax.tasks
	}
	return len(s.plan.chains) * s.ax.nm * s.ax.nd
}

// rangeAt returns the scheduled half-open range of dispatch unit ri.
func (s *schedule) rangeAt(ri int) (start, end int) {
	if s.plan == nil {
		return ri * s.ax.na, (ri + 1) * s.ax.na
	}
	nmnd := s.ax.nm * s.ax.nd
	ci := ri / nmnd
	rem := ri % nmnd
	mi, di := rem/s.ax.nd, rem%s.ax.nd
	clen := len(s.plan.chains[ci])
	start = s.blockStart[ci] + (mi*s.ax.nd+di)*s.ax.na*clen
	return start, start + s.ax.na*clen
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
	pos int           // scheduled position the carried outcome continues at
	out *core.Outcome // engine-owned tail fixed point, nil when empty
	// hits counts takes that found a carried fixed point; misses counts
	// takes that had to re-run the chain head from scratch. With
	// chain-ordered strip dispatch every boundary cut mid-chain is
	// evaluated offer-before-take, so misses stays zero on fresh runs —
	// the counters make that claim testable. (Resumed runs can miss at
	// unit starts whose predecessor shard completed in an earlier run.)
	hits, misses int
}

// reset clears the carry for a new dispatch strip.
func (c *carry) reset() { *c = carry{} }

// take returns the fixed point carried to scheduled position pos, or
// nil — counting the hit or miss — and empties the carry.
func (c *carry) take(pos int) *core.Outcome {
	if c.out != nil && c.pos == pos {
		o := c.out
		c.out = nil
		c.hits++
		return o
	}
	c.out = nil
	c.misses++
	return nil
}

// offer stores the tail fixed point a continuation at scheduled
// position pos will resume from.
func (c *carry) offer(pos int, o *core.Outcome) {
	c.pos, c.out = pos, o
}

// evaluateRange evaluates the scheduled positions [start, end), calling
// emit once per valid (attacker ≠ destination) cell with the cell's
// task index and exact integer happy bounds. Cells are visited in
// scheduled order; on a chain-major schedule each group run reuses the
// previous step's fixed point via RunDelta — replaying the step's
// removed-then-added signed delta in one call, so forest walks that
// shrink a deployment ride the same path as grow-only chains — and the
// carry, when given, bridges runs cut by the range boundary. It reports
// false if ctx was cancelled, in which case the partial emission must
// be discarded.
//
//sbgp:hotpath
func (pl *Plan) evaluateRange(ctx context.Context, ws *workerState, c *carry, start, end int, emit func(ti, lo, hi int)) bool {
	gr, g, s, ax := &pl.gr, pl.g, pl.sched, pl.ax
	if s.plan == nil {
		// Identity: one RunAttack per cell, grouped by task.
		for cs := start; cs < end; {
			if ctx.Err() != nil {
				return false
			}
			ti := cs / ax.na
			aiStart := cs % ax.na
			aiEnd := ax.na
			if (ti+1)*ax.na > end {
				aiEnd = end - ti*ax.na
			}
			si, mi, di := ax.decodeTask(ti)
			e := ws.engine(g, ax.models[mi], gr.LP)
			d := gr.Destinations[di]
			dep := ax.deps[si].Dep
			for ai := aiStart; ai < aiEnd; ai++ {
				m := gr.Attackers[ai]
				if m == d {
					continue
				}
				e.RunAttack(d, m, dep, gr.Attack)
				lo, hi := e.HappyBounds()
				emit(ti, lo, hi)
			}
			cs = ti*ax.na + aiEnd
		}
		return true
	}

	// Chain-major: decompose [start, end) into group runs. Groups are
	// contiguous runs of one chain's positions for a fixed (model,
	// destination, attacker); only the first group of the range can
	// start mid-chain, and only the last can be cut short.
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
		p1 := gEnd
		if p1 > end {
			p1 = end
		}
		mi := gi / (nd * na)
		rem := gi % (nd * na)
		di, ai := rem/na, rem%na
		d, m := gr.Destinations[di], gr.Attackers[ai]
		if m == d {
			p = p1
			continue
		}
		e := ws.engine(g, ax.models[mi], gr.LP)
		var prev *core.Outcome
		if pos0 > 0 && c != nil {
			prev = c.take(p)
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
			if prev == nil {
				prev = e.RunAttack(d, m, dep, gr.Attack)
			} else {
				prev = e.RunDelta(prev, step.added, step.removed, dep, gr.Attack)
			}
			lo, hi := e.HappyBounds()
			emit((step.si*ax.nm+mi)*ax.nd+di, lo, hi)
		}
		if c != nil && p1 == end && p1 < gEnd {
			c.offer(p1, prev)
		}
		p = p1
	}
	return true
}
