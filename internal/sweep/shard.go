package sweep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"sbgp/internal/asgraph"
)

// DefaultShardSize is the cell count per shard when ShardOptions leaves
// ShardSize zero: large enough that the per-shard bookkeeping (one
// checkpoint record, one merge pass) is negligible next to the engine
// runs, small enough that progress and checkpoint loss on interruption
// stay fine-grained on full |V|² enumerations. It is a storage
// parameter only: a shard is the unit of commit, not of dispatch
// (RunShards slices shards into strips when workers would idle), so it
// bounds neither parallelism nor cancellation latency.
const DefaultShardSize = 4096

// ShardOptions says how EvaluateSharded cuts, stores and streams the
// grid; RunOptions carries the per-run resources.
type ShardOptions struct {
	// ShardSize is the number of grid cells — (deployment, model,
	// destination, attacker) quadruples — per shard; 0 means
	// DefaultShardSize. The evaluated Result is byte-identical at every
	// shard size.
	ShardSize int

	// Checkpoint, when non-empty, names a JSON-lines file that durably
	// records every completed shard (one fsync'd record each). A fresh
	// run truncates the file and writes a header binding it to this
	// exact grid.
	Checkpoint string

	// Resume makes an existing Checkpoint file's completed shards count
	// as done: they are merged from the file instead of re-evaluated,
	// and only the remaining shards run. The file's header must match
	// the grid (fingerprint, cell count, shard size) or EvaluateSharded
	// fails rather than silently mixing incompatible partials. With no
	// existing file, Resume behaves like a fresh run.
	Resume bool

	// Sink, when non-nil, observes every completed shard's partial
	// aggregate: shards resumed from the checkpoint are replayed to it
	// (in shard order) before evaluation starts, and each freshly
	// evaluated shard is delivered as it finishes, after its checkpoint
	// record (if any) is durable — so one call sees every shard of the
	// grid exactly once, and each partial is the sink's to keep. Called
	// serially; a non-nil error aborts the evaluation. Fresh-shard
	// delivery order is scheduling-dependent — only the merged Result is
	// deterministic.
	Sink func(*ShardPartial) error
}

// ShardStats reports how a sharded evaluation was planned and
// dispatched, and how often cross-shard chain handoff reused a fixed
// point instead of re-running a chain head. With chain-ordered
// dispatch, a fresh run (no resumed shards) has HandoffMisses == 0 by
// construction; a resume can miss at unit starts whose predecessor
// shard completed in an earlier run. Every field is the same at every
// worker count. The dispatch and handoff counters
// accumulate across evaluations sharing the struct; the planner fields
// describe the schedule and are (re)set by each evaluation.
type ShardStats struct {
	// Units is the number of chain-aligned units the pending shards were
	// cut into (see Plan.Units) — not the number of strips the workers
	// shared them in, which depends on the worker count.
	Units int `json:"units"`
	// HandoffHits counts chain continuations that found the state their
	// predecessor shard offered: a tail fixed point to resume from via
	// RunDelta, or the note that the chain's head is still deferred.
	HandoffHits int `json:"handoff_hits"`
	// HandoffMisses counts chain continuations that re-ran their head
	// from scratch because nothing had been offered yet.
	HandoffMisses int `json:"handoff_misses"`

	// ChainHeads is the number of from-scratch walk heads per (model,
	// destination, attacker) group under the planned schedule — the
	// number of trees in the signed-delta forest, the number of nested
	// chains, or the full deployment-axis length on the identity
	// schedule.
	ChainHeads int `json:"chain_heads"`
	// DeltaEdges is the number of RunDelta steps per group walk
	// (deployments minus ChainHeads; zero on the identity schedule).
	DeltaEdges int `json:"delta_edges"`
	// PredictedVolume is the planner's predicted adjacency edge-volume
	// of one group walk under its cost model: ChainHeads from-scratch
	// runs (each priced at the delta-threshold fraction of the graph's
	// total edge-volume) plus every walk step's signed delta volume,
	// capped at the from-scratch price. Comparing it against the
	// identity prediction (axis length × from-scratch price) is the
	// observable form of the planner's payoff.
	PredictedVolume int64 `json:"predicted_volume"`
}

// ShardPartial is one completed shard's exact partial aggregate: for
// each task (a (deployment, model, destination) triple, indexed as in
// the grid's task space) the shard touched, the integer happiness
// bounds summed over the shard's attackers and the number of valid
// (m ≠ d) pairs. Tasks with no valid pair in the shard are omitted.
// Partials merge positionally by task index, so adding them in any
// order reproduces the serial aggregate exactly.
type ShardPartial struct {
	Shard int   `json:"shard"`
	Tasks []int `json:"tasks,omitempty"`
	Lo    []int `json:"lo,omitempty"`
	Hi    []int `json:"hi,omitempty"`
	Pairs []int `json:"pairs,omitempty"`
}

// deliver hands sink, if any, its own copy of p: RunShards gives commit
// the worker's scratch partial, and sinks may keep what they see.
func deliver(sink func(*ShardPartial) error, p *ShardPartial) error {
	if sink == nil {
		return nil
	}
	return sink(&ShardPartial{
		Shard: p.Shard,
		Tasks: slices.Clone(p.Tasks),
		Lo:    slices.Clone(p.Lo),
		Hi:    slices.Clone(p.Hi),
		Pairs: slices.Clone(p.Pairs),
	})
}

// numShards is the shard-count rule: how many shards a cell space of
// the given size is cut into (shardSize ≤ 0 means DefaultShardSize).
func numShards(cells, shardSize int) int {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	return (cells + shardSize - 1) / shardSize
}

// Fingerprint is a stable 64-bit digest of everything that shapes the
// grid's cell space, its scheduled order, and per-cell outcomes:
// topology size, policy variant, attack, axes (including deployment
// memberships), and — when the scheduler orders cells chain-major — a
// schedule tag. Checkpoint files embed it so a resume against a
// different grid, or against the same grid under a different shard
// layout (shard indices are meaningless across layouts), fails loudly
// instead of silently merging incompatible partials. Identity-ordered
// grids carry no tag, so their checkpoints remain interchangeable with
// every pre-scheduler release. Shard size is deliberately excluded — it
// lives in the header, and resume adopts it from there.
func (gr *Grid) fingerprint(g *asgraph.Graph, ax *axes, sched *schedule) string {
	h := fnv.New64a()
	wint := func(x int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	wstr := func(s string) {
		wint(len(s))
		h.Write([]byte(s))
	}
	wset := func(s *asgraph.Set) {
		if s == nil {
			wint(-1)
			return
		}
		members := s.Members()
		wint(len(members))
		for _, v := range members {
			wint(int(v))
		}
	}
	wint(g.N())
	wstr(gr.LP.String())
	wstr(gr.attackName())
	if gr.PerDest {
		wint(1)
	} else {
		wint(0)
	}
	wint(len(ax.models))
	for _, m := range ax.models {
		wstr(m.String())
	}
	wint(len(ax.deps))
	for _, dp := range ax.deps {
		wstr(dp.Name)
		if dp.Dep == nil {
			wint(-1)
			continue
		}
		wset(dp.Dep.Full)
		wset(dp.Dep.Simplex)
	}
	wint(ax.na)
	for _, m := range gr.Attackers {
		wint(int(m))
	}
	wint(ax.nd)
	for _, d := range gr.Destinations {
		wint(int(d))
	}
	if !sched.identity() {
		if sched.plan.forest {
			// Forest layouts hash their walk structure, not just a tag:
			// the forest shape depends on the graph's adjacency degrees
			// (the planner's edge-volume cost model), which the
			// membership-only fields above do not capture — and any
			// future cost-model change moves the layout. Binding the
			// exact linearization makes every cross-layout resume a loud
			// fingerprint mismatch instead of a silent wrong-bytes merge.
			wstr("schedule:forest")
			wint(len(sched.plan.chains))
			for _, ch := range sched.plan.chains {
				wint(len(ch))
				for _, step := range ch {
					wint(step.si)
				}
			}
		} else {
			// Nested-chain layouts keep the historical tag: the plan is a
			// pure function of the memberships hashed above, so
			// pre-forest chain-major checkpoints resume unchanged.
			wstr("schedule:chain-major")
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// shardAcc is a worker's reusable per-shard task accumulator: dense
// arrays indexed by task, an epoch stamp per slot so starting a new
// shard costs O(1) instead of an O(tasks) clear, and the list of tasks
// the current shard touched. It replaces the per-shard map the partial
// builder used to allocate — a shard touches a handful of tasks out of
// a space sized once per grid, which is exactly the shape an
// epoch-stamped arena is for.
type shardAcc struct {
	lo, hi, pairs []int
	stamp         []uint32
	cur           uint32
	touched       []int
}

// begin readies the accumulator for a shard over a task space of the
// given size, growing the arrays only when a larger grid arrives (a
// pooled worker state outlives any one grid).
func (a *shardAcc) begin(tasks int) {
	if len(a.stamp) < tasks {
		a.lo = make([]int, tasks)
		a.hi = make([]int, tasks)
		a.pairs = make([]int, tasks)
		a.stamp = make([]uint32, tasks)
		a.cur = 0
	}
	a.cur++
	if a.cur == 0 { // stamp wrap: one honest clear every 2^32 shards
		clear(a.stamp)
		a.cur = 1
	}
	a.touched = a.touched[:0]
}

// touch zeroes task ti's slot on the current shard's first visit.
func (a *shardAcc) touch(ti int) {
	if a.stamp[ti] != a.cur {
		a.stamp[ti] = a.cur
		a.lo[ti], a.hi[ti], a.pairs[ti] = 0, 0, 0
		a.touched = append(a.touched, ti)
	}
}

// add folds one cell's exact bounds into its task slot.
//
//sbgp:hotpath
func (a *shardAcc) add(ti, lo, hi int) {
	a.touch(ti)
	a.lo[ti] += lo
	a.hi[ti] += hi
	a.pairs[ti]++
}

// fold adds every task slice touched into a: the positional integer add
// that makes a shard evaluated in slices equal the shard evaluated whole.
func (a *shardAcc) fold(slice *shardAcc) {
	for _, ti := range slice.touched {
		a.touch(ti)
		a.lo[ti] += slice.lo[ti]
		a.hi[ti] += slice.hi[ti]
		a.pairs[ti] += slice.pairs[ti]
	}
}

// partial writes the accumulated shard into p, listing the touched tasks
// in ascending order so the record bytes are independent of the walk
// order — and of how many slices the shard was evaluated in.
//
//sbgp:hotpath
func (a *shardAcc) partial(p *ShardPartial, shard int) {
	slices.Sort(a.touched)
	p.Shard = shard
	p.Tasks, p.Lo, p.Hi, p.Pairs = p.Tasks[:0], p.Lo[:0], p.Hi[:0], p.Pairs[:0]
	for _, ti := range a.touched {
		p.Tasks = append(p.Tasks, ti)
		p.Lo = append(p.Lo, a.lo[ti])
		p.Hi = append(p.Hi, a.hi[ti])
		p.Pairs = append(p.Pairs, a.pairs[ti])
	}
}

// pendingShard gathers the slices of one shard whose cells RunShards
// dispatched in more than one strip: cells counts the positions folded so
// far, and the slice that brings it to the shard's size commits acc.
type pendingShard struct {
	shard, cells int
	acc          shardAcc
}

// EvaluateSharded evaluates the plan partitioned into fixed-size shards
// of the *scheduled* (deployment × model × destination × attacker) cell
// space: incremental grids order the cells chain-major before the shards
// are cut, so a RunDelta chain occupies consecutive shards (with tail
// fixed points handed across the boundaries) instead of scattering one
// cell into every shard. Each completed shard's exact integer partial is
// committed to the store — checkpoint record first, then the positional
// fold — and then streamed to the sink, so the Result is byte-identical
// at every worker count and shard size.
//
// With a Checkpoint configured, every completed shard is durably
// recorded (fsync per record). Cancelling ctx aborts promptly with
// (nil, ctx.Err()) — the checkpoint keeps the shards that finished —
// and a later call with Resume set skips exactly those shards and
// reproduces the uninterrupted result.
func (pl *Plan) EvaluateSharded(ctx context.Context, opts ShardOptions, run RunOptions) (*Result, error) {
	// A resumed checkpoint dictates the shard size (shard indices are
	// meaningless under any other partition): with none requested the
	// store adopts the file's, an explicit conflict is rejected, and a
	// file written under a different schedule fails the fingerprint.
	store, err := openStore(opts.Checkpoint, pl.Layout(opts.ShardSize), opts.ShardSize <= 0, opts.Resume)
	if err != nil {
		return nil, err
	}
	defer store.Close() // every record is already fsync'd; nothing left to lose
	if opts.Sink != nil {
		// Replay checkpointed shards in shard order so the sink observes
		// the whole grid, not just the fresh remainder.
		for _, p := range store.Resumed() {
			if err := opts.Sink(p); err != nil {
				return nil, err
			}
		}
	}
	err = pl.RunShards(ctx, &store.layout, store.Missing(), run, func(p *ShardPartial) error {
		if _, err := store.Add(p); err != nil {
			return err
		}
		return deliver(opts.Sink, p)
	})
	if err != nil {
		return nil, err
	}
	return pl.Result(store)
}
