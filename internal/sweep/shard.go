package sweep

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
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
	// records every completed shard (one fsync'd record each; a record's
	// fsync overlaps the next shard's evaluation, so at most one record
	// is written but not yet durable). A fresh run truncates the file
	// and writes a header binding it to this exact grid.
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
	// evaluated shard is delivered once its checkpoint record (if any)
	// is durable — with a Checkpoint, when the next shard commits or the
	// evaluation ends — so one call sees every shard of the grid exactly
	// once, and each partial is the sink's to keep. Called serially; a
	// non-nil error aborts the evaluation. Once ctx is cancelled the
	// sink sees at most the one shard whose record was already written,
	// so the checkpoint holds exactly the shards the sink saw.
	// Fresh-shard delivery order is scheduling-dependent — only the
	// merged Result is deterministic.
	Sink func(*ShardPartial) error
}

// ShardStats reports how a sharded evaluation was planned and
// dispatched, how often cross-shard chain handoff reused a fixed point
// instead of re-running a chain head, how often the baseline memo
// served a security-free head instead of an engine run, and what the
// engines did for the rest: every valid cell walked is exactly one of
// MemoHits + Runs + DeltaSteps + NoOps. With chain-ordered
// dispatch, a fresh run (no resumed shards) has HandoffMisses == 0 by
// construction; a resume can miss at unit starts whose predecessor
// shard completed in an earlier run. Every field but the memo and engine
// counters is the same at every worker count. The dispatch, handoff, memo
// and engine counters accumulate across evaluations sharing the struct;
// the planner fields describe the schedule and are (re)set by each
// evaluation. No evaluation reads any of them.
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
	// MemoHits counts security-free chain heads served from the baseline
	// memo, MemoFills those run and stored in it. Unlike the fields
	// above they are exact at one worker only: workers that reach a pair
	// at once may each run and store it, so at any worker count
	// MemoHits + MemoFills is at most the free heads walked.
	MemoHits  int `json:"memo_hits"`
	MemoFills int `json:"memo_fills"`
	// Counters is the engines' work for the cells the memo did not serve;
	// like the memo counters, it is exact at one worker only.
	core.Counters

	// ChainHeads is the number of from-scratch walk heads per (model,
	// destination, attacker) group under the planned schedule — the
	// number of planned walks, or the full deployment-axis length on the
	// identity schedule.
	ChainHeads int `json:"chain_heads"`
	// DeltaEdges is the number of RunDelta steps per group walk
	// (deployments minus ChainHeads; zero on the identity schedule).
	DeltaEdges int `json:"delta_edges"`
	// PredictedVolume is the planner's price of one group walk, in
	// adjacency edge-volume units (the cost model in chain.go):
	// ChainHeads from-scratch runs plus every walk step's expected seed
	// volume, each step below the price of a run. Comparing it against
	// the identity prediction (axis length × from-scratch price) is the
	// observable form of the planner's payoff.
	PredictedVolume int64 `json:"predicted_volume"`
}

// Fold adds one evaluation of a job's shards into the job's total s:
// the dispatch, memo and engine counters sum, and the planner fields,
// which describe the schedule itself, are assigned, so evaluating the
// same layout again (resume, range leases) reports the same plan.
func (s *ShardStats) Fold(o ShardStats) {
	s.ChainHeads, s.DeltaEdges, s.PredictedVolume = 0, 0, 0
	s.Add(o)
}

// Add sums o into s, planner fields included.
func (s *ShardStats) Add(o ShardStats) {
	s.Units += o.Units
	s.HandoffHits += o.HandoffHits
	s.HandoffMisses += o.HandoffMisses
	s.MemoHits += o.MemoHits
	s.MemoFills += o.MemoFills
	s.Counters.Add(o.Counters)
	s.ChainHeads += o.ChainHeads
	s.DeltaEdges += o.DeltaEdges
	s.PredictedVolume += o.PredictedVolume
}

// String is the one-line summary the CLIs print under -v: the planner's
// prediction, then what the engines measurably did, then the dispatch.
func (s ShardStats) String() string {
	return fmt.Sprintf("schedule: %d chain heads, %d delta edges, predicted volume %d per walk; "+
		"engine: %d runs (%d fallbacks, %d late), %d delta steps in %d passes over dirty volume %d, %d no-ops; "+
		"dispatch: %d units, handoff %d hits / %d misses, baseline memo %d hits / %d fills",
		s.ChainHeads, s.DeltaEdges, s.PredictedVolume,
		s.Runs, s.Fallbacks, s.LateFallbacks, s.DeltaSteps, s.Passes, s.DirtyVolume, s.NoOps,
		s.Units, s.HandoffHits, s.HandoffMisses, s.MemoHits, s.MemoFills)
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
	return sink(p.clone())
}

// clone returns a copy of p that shares no array with it.
func (p *ShardPartial) clone() *ShardPartial {
	return &ShardPartial{
		Shard: p.Shard,
		Tasks: slices.Clone(p.Tasks),
		Lo:    slices.Clone(p.Lo),
		Hi:    slices.Clone(p.Hi),
		Pairs: slices.Clone(p.Pairs),
	}
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
// memberships), and — when the scheduler orders cells chain-major — the
// planner's walks. Checkpoint files embed it so a resume against a
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
		// A chained layout hashes its walks, not just a tag: the walks
		// depend on the graph's adjacency degrees (the planner's cost
		// model), which the membership-only fields above do not capture,
		// and any planner or cost-model change moves them. Binding the
		// exact linearization makes every cross-layout resume a loud
		// fingerprint mismatch instead of a silent wrong-bytes merge.
		wstr("schedule:walks")
		wint(len(sched.plan.chains))
		for _, ch := range sched.plan.chains {
			wint(len(ch))
			for _, step := range ch {
				wint(step.si)
			}
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
// recorded (one fsync per record). The fsync of shard k overlaps the
// evaluation of the next shard, with one record in flight at most:
// committing shard k+1 first waits for shard k's fsync and delivers
// shard k to the sink. Cancelling ctx aborts promptly with
// (nil, ctx.Err()) — the checkpoint keeps the shards that finished, and
// the sink has seen exactly those — and a later call with Resume set
// skips exactly those shards and reproduces the uninterrupted result.
func (pl *Plan) EvaluateSharded(ctx context.Context, opts ShardOptions, run RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A resumed checkpoint dictates the shard size (shard indices are
	// meaningless under any other partition): with none requested the
	// store adopts the file's, an explicit conflict is rejected, and a
	// file written under a different schedule fails the fingerprint.
	store, err := openStore(opts.Checkpoint, pl.Layout(opts.ShardSize), opts.ShardSize <= 0, opts.Resume)
	if err != nil {
		return nil, err
	}
	defer store.Close() // every record is settled below; nothing left to lose
	if opts.Sink != nil {
		// Replay checkpointed shards in shard order so the sink observes
		// the whole grid, not just the fresh remainder.
		for _, p := range store.Resumed() {
			if err := opts.Sink(p); err != nil {
				return nil, err
			}
		}
	}
	c := newCommitPipe(ctx, store, opts.Sink, store.Shards()-store.HaveCount())
	defer c.stop()
	err = pl.RunShards(ctx, &store.layout, store.Missing(), run, c.commit)
	// The last shard added is still in flight whatever ended the walk:
	// settle it, so the sink sees every shard the checkpoint holds.
	if serr := c.settle(); err == nil {
		err = serr
	}
	if err == nil {
		err = ctx.Err() // a sink may cancel on the last shard
	}
	if err != nil {
		return nil, err
	}
	return pl.Result(store)
}

// commitPipe is EvaluateSharded's commit. On a durable store it keeps
// one record in flight: the fsync of the shard added last runs on the
// evaluation's one syncer goroutine while the walk goes on, and the next
// commit waits for it before delivering that shard to the sink. So the
// sink still sees a shard only once its record is durable, and a sink
// that cancels ctx still stops the next record from being written.
type commitPipe struct {
	ctx   context.Context
	store *CheckpointWriter
	sink  func(*ShardPartial) error
	// pending says a shard was added and is not settled yet; held is the
	// sink's copy of it (nil without a sink).
	pending bool
	held    *ShardPartial
	// syncs starts the syncer's fsync of the shard added last and synced
	// returns its error. Both are nil when there is no fsync to overlap
	// with a next shard — a memory-only store, or a single shard left —
	// and each shard is then settled as it is added.
	syncs  chan struct{}
	synced chan error
}

// newCommitPipe readies the commit of the given number of shards into
// store, starting the syncer when the store has a file and there is more
// than one shard. stop ends it.
func newCommitPipe(ctx context.Context, store *CheckpointWriter, sink func(*ShardPartial) error, shards int) *commitPipe {
	c := &commitPipe{ctx: ctx, store: store, sink: sink}
	if store.f != nil && shards > 1 {
		c.syncs, c.synced = make(chan struct{}), make(chan error, 1)
		go func() {
			defer close(c.synced)
			for range c.syncs {
				c.synced <- store.sync()
			}
		}()
	}
	return c
}

// commit is RunShards' commit, called serially: settle the shard added
// before p, re-check ctx (that shard's sink may have cancelled it), add
// p and hand its fsync to the syncer (without one, settle p at once).
func (c *commitPipe) commit(p *ShardPartial) error {
	if err := c.settle(); err != nil {
		return err
	}
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if _, err := c.store.add(p); err != nil {
		return err
	}
	if c.sink != nil {
		c.held = p.clone() // p is the worker's scratch
	}
	c.pending = true
	if c.syncs == nil {
		return c.settle()
	}
	c.syncs <- struct{}{}
	return nil
}

// settle finishes the commit of the shard added last, if any: it waits
// for the record's fsync, then hands the sink its copy. A shard whose
// fsync failed never reaches the sink.
func (c *commitPipe) settle() error {
	if !c.pending {
		return nil
	}
	c.pending = false
	var err error
	if c.synced != nil {
		err = <-c.synced
	} else {
		err = c.store.sync()
	}
	p := c.held
	c.held = nil
	if err != nil || p == nil {
		return err
	}
	return c.sink(p)
}

// stop ends the syncer and returns once it has exited, so the store can
// be closed. Every shard is settled by then, so there is nothing to drain.
func (c *commitPipe) stop() {
	if c.syncs != nil {
		close(c.syncs)
		<-c.synced
	}
}
