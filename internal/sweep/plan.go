package sweep

// Plan → loop → store (DESIGN.md has the picture). Grid.Prepare plans a
// grid on a graph once; Plan.RunShards is the one loop every evaluation
// runs — strips are what it dispatches, shards what it commits, units
// what a coordinator leases — and CheckpointWriter the store its commits
// land in. A single box fills the store from RunShards (EvaluateSharded;
// Evaluate is the same with a memory-only store and the default shard
// size); a coordinator fills the same store from partials its workers
// computed with EvaluateShardRange under an equal Layout — the same
// computation cut differently, which is why the bytes agree.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"sbgp/internal/asgraph"
	"sbgp/internal/runner"
)

// Plan is a grid prepared on one graph: the validated axes, the
// scheduled cell order, and the fingerprint binding both, computed once
// by Grid.Prepare and immutable from then on. Every entry point only
// reads the Plan — per-run scratch lives in the EnginePool — so all of
// them may run concurrently, and each Result is the caller's.
type Plan struct {
	gr    Grid // private copy: the caller's Grid may change after Prepare
	g     *asgraph.Graph
	ax    *axes
	sched *schedule
	fp    string
}

// Prepare validates the grid and plans it on g. The plan is a
// deterministic function of (graph, grid), so parties preparing the same
// grid independently agree on every layout.
func (gr *Grid) Prepare(g *asgraph.Graph) (*Plan, error) {
	ax, err := gr.expand()
	if err != nil {
		return nil, err
	}
	pl := &Plan{gr: *gr, g: g, ax: ax}
	pl.sched = newSchedule(&pl.gr, ax, g)
	pl.fp = pl.gr.fingerprint(g, ax, pl.sched)
	return pl, nil
}

// Evaluate evaluates the plan into a memory-only store at the default
// shard size. Cancelling ctx aborts promptly with (nil, ctx.Err());
// partial aggregates are discarded, never returned.
func (pl *Plan) Evaluate(ctx context.Context) (*Result, error) {
	return pl.EvaluateSharded(ctx, ShardOptions{}, RunOptions{})
}

// Layout is the portable identity and geometry of one sharded grid
// evaluation. Two parties holding equal Layouts are guaranteed to mean
// the same cell space, the same scheduled order, and the same shard
// cuts — so shard indices, partials, and checkpoint records are
// interchangeable between them, and nothing else is.
type Layout struct {
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	Tasks       int    `json:"tasks"`
	ShardSize   int    `json:"shard_size"`
	Shards      int    `json:"shards"`
}

// ShardRange is a half-open range [Start, End) of shard indices.
type ShardRange struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of shards in the range.
func (r ShardRange) Len() int { return r.End - r.Start }

// Layout cuts the plan's cell space into shards of shardSize cells
// (≤ 0 means DefaultShardSize).
func (pl *Plan) Layout(shardSize int) *Layout {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	return &Layout{
		Fingerprint: pl.fp,
		Cells:       pl.ax.cells,
		Tasks:       pl.ax.tasks,
		ShardSize:   shardSize,
		Shards:      numShards(pl.ax.cells, shardSize),
	}
}

// geometry rejects a Layout whose fields cannot all be true at once.
func (l *Layout) geometry() error {
	if len(l.Fingerprint) != 16 {
		return fmt.Errorf("sweep: malformed layout fingerprint %q", l.Fingerprint)
	}
	if l.Cells <= 0 || l.Tasks <= 0 || l.ShardSize <= 0 || l.Shards != numShards(l.Cells, l.ShardSize) {
		return fmt.Errorf("sweep: inconsistent layout geometry (cells=%d tasks=%d shard_size=%d shards=%d)",
			l.Cells, l.Tasks, l.ShardSize, l.Shards)
	}
	return nil
}

// check verifies a layout against the plan. Mixing partials across
// layouts is the one mistake a distributed split must make impossible,
// so the mismatch error is loud and names both fingerprints.
func (pl *Plan) check(l *Layout) error {
	if err := l.geometry(); err != nil {
		return err
	}
	if l.Fingerprint != pl.fp || l.Cells != pl.ax.cells || l.Tasks != pl.ax.tasks {
		return fmt.Errorf("sweep: layout belongs to a different grid "+
			"(layout fingerprint %s cells=%d tasks=%d; this grid is fingerprint %s cells=%d tasks=%d)",
			l.Fingerprint, l.Cells, l.Tasks, pl.fp, pl.ax.cells, pl.ax.tasks)
	}
	return nil
}

// ValidatePartial checks one shard partial against the layout: shard
// index in range, well-shaped arrays, task indices inside the task
// space. It does not — cannot — verify the integer counts themselves;
// the fingerprint binding is what guarantees an honest worker's counts
// are the right ones.
func (l *Layout) ValidatePartial(p *ShardPartial) error {
	if p == nil {
		return fmt.Errorf("sweep: nil shard partial")
	}
	if p.Shard < 0 || p.Shard >= l.Shards {
		return fmt.Errorf("sweep: shard %d out of range [0,%d)", p.Shard, l.Shards)
	}
	if err := validatePartialShape(p); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	for _, ti := range p.Tasks {
		if ti >= l.Tasks {
			return fmt.Errorf("sweep: shard %d: task %d out of range [0,%d)", p.Shard, ti, l.Tasks)
		}
	}
	return nil
}

// units cuts ascending runs of shards into chain-aligned units, appended
// to dst: each run is split wherever the boundary position is
// handoff-free. A unit's shards are evaluated in order by one worker, so
// every boundary *inside* a unit — exactly the boundaries that cut a
// chain mid-group — has its tail fixed point offered before the
// continuation runs. That makes cross-shard delta handoff deterministic:
// on a fresh run every take hits. Single-step chains have only free
// boundaries, so on the identity order units degenerate to single shards.
func (pl *Plan) units(dst, runs []ShardRange, size int) []ShardRange {
	for _, r := range runs {
		start := r.Start
		for s := r.Start + 1; s <= r.End; s++ {
			if s == r.End || pl.sched.handoffFree(s*size) {
				dst = append(dst, ShardRange{Start: start, End: s})
				start = s
			}
		}
	}
	return dst
}

// Units returns the chain-aligned units covering the whole shard space
// of l, one of the plan's layouts: the lease granularity. A coordinator
// leases whole units — or contiguous runs of them — so RunDelta chains
// stay local to the worker holding the lease. (What a worker's own cores
// share is finer: RunShards slices units into strips.)
func (pl *Plan) Units(l *Layout) []ShardRange {
	return pl.units(nil, []ShardRange{{End: l.Shards}}, l.ShardSize)
}

// strip is the sharded loop's dispatch item: the scheduled positions
// [start, end) of one unit, or a slice of one. A strip starts where its
// unit starts or at a handoff-free position and ends likewise, so no
// RunDelta chain is ever split across goroutines.
type strip struct{ start, end int }

// strips cuts the units' cells into dispatch strips, appended to dst.
// With one worker a strip is a unit. With more, any unit longer than the
// runner's chunk of the pending cells — the share that gives every
// worker chunkTarget strips — is sliced at the handoff-free positions
// nearest that spacing, so a grid of one default-size shard still feeds
// every core; where units already outnumber that, nothing is cut.
// Strips depend on the worker count; shards, units and the bytes
// committed do not.
func (pl *Plan) strips(dst []strip, units []ShardRange, l *Layout, workers int) []strip {
	cells := func(u ShardRange) (start, end int) {
		return u.Start * l.ShardSize, min(u.End*l.ShardSize, l.Cells)
	}
	target := 0
	if workers > 1 {
		pending := 0
		for _, u := range units {
			start, end := cells(u)
			pending += end - start
		}
		target = runner.ChunkSize(pending, workers)
		dst = slices.Grow(dst, len(units)+pending/target)
	}
	for _, u := range units {
		start, end := cells(u)
		for target > 0 && end-start > target {
			cut := pl.sched.nextFree(start + target)
			if cut >= end {
				break
			}
			dst = append(dst, strip{start, cut})
			start = cut
		}
		dst = append(dst, strip{start, end})
	}
	return dst
}

// shardRun is the scratch of one RunShards call — the dispatch lists and
// the state its workers share under the commit mutex — recycled through
// the EnginePool so a resident service's jobs do not rebuild it.
type shardRun struct {
	units  []ShardRange
	strips []strip
	memo   baselineMemo // shared lock-free by the run's workers

	mu           sync.Mutex // the commit mutex; guards everything below
	commitErr    error
	hits, misses int
	// pending holds the shards some but not all of whose slices have
	// been folded — at most two per strip in flight, so a linear scan
	// finds one; spare keeps retired accumulators for the next.
	pending, spare []*pendingShard
}

// foldSlice adds a worker's slice (cells positions of shard s, which has
// size in all) to the shard's pending accumulator and returns that
// accumulator once every position is in — the shard is then complete
// and retired — or nil while slices are outstanding. Caller holds mu.
func (r *shardRun) foldSlice(s, cells, size, tasks int, slice *shardAcc) *shardAcc {
	i := 0
	for i < len(r.pending) && r.pending[i].shard != s {
		i++
	}
	if i == len(r.pending) {
		pd := &pendingShard{}
		if n := len(r.spare); n > 0 {
			pd, r.spare = r.spare[n-1], r.spare[:n-1]
		}
		pd.shard, pd.cells = s, 0
		pd.acc.begin(tasks)
		r.pending = append(r.pending, pd)
	}
	pd := r.pending[i]
	pd.acc.fold(slice)
	if pd.cells += cells; pd.cells < size {
		return nil
	}
	r.pending = slices.Delete(r.pending, i, i+1)
	r.spare = append(r.spare, pd)
	return &pd.acc
}

// RunOptions are the per-run resources of the sharded loop.
type RunOptions struct {
	// Pool, when non-nil, draws per-worker engine state from an
	// EnginePool instead of constructing it fresh — the warm-engine hook
	// of a resident service or a worker evaluating many leases. Any pool
	// serves any plan (pooled engines follow the job; see EnginePool),
	// and results are identical with or without one.
	Pool *EnginePool
	// Stats, when non-nil, accumulates dispatch and handoff counters.
	Stats *ShardStats
}

// RunShards is the sharded loop: the given shards of layout l (ascending
// disjoint runs) are cut into chain-ordered units and those into strips
// (see strips), the strips fan out over the worker pool, and each
// completed shard's partial is committed serially under a mutex. The
// strip is the unit of dispatch, the shard the unit of commit: a worker
// that evaluated a whole shard commits its own scratch partial; one that
// evaluated a slice folds it into the shard's pending accumulator, and
// the slice that completes the shard commits the sum — the same bytes a
// single worker would have written, because the fold is a positional
// integer add. A commit error aborts the remaining strips promptly, and
// a shard finishing — or a slice arriving — after cancellation (or after
// a failed commit) is discarded: once ctx.Err() is set, commit is never
// called again, so a commit that cancels the context can rely on seeing
// no further partials, and a shard only partly evaluated commits nothing.
//
// The partial handed to commit is the worker's own scratch, valid only
// during the call: commit must copy what it keeps (CheckpointWriter.Add
// folds and marshals before returning). That is what makes the
// steady-state shard loop allocation-free.
func (pl *Plan) RunShards(ctx context.Context, l *Layout, shards []ShardRange, opts RunOptions, commit func(p *ShardPartial) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := pl.check(l); err != nil {
		return err
	}
	next := 0
	for _, r := range shards {
		if r.Start < next || r.Start >= r.End || r.End > l.Shards {
			return fmt.Errorf("sweep: shard range [%d,%d) invalid for layout with %d shards", r.Start, r.End, l.Shards)
		}
		next = r.End
	}
	pool := opts.Pool
	if pool == nil {
		pool = NewEnginePool() // nothing to keep warm: this run's state only
	}
	run := pool.getRun()
	defer pool.putRun(run)
	run.units = pl.units(run.units[:0], shards, l.ShardSize)
	run.strips = pl.strips(run.strips[:0], run.units, l, runner.Workers(pl.gr.Workers))
	run.memo = run.memo.sized(pl.ax.nd * pl.ax.na)

	// abort lets a commit failure stop the remaining strips without
	// waiting for the whole grid.
	ctx, abort := context.WithCancel(ctx)
	defer abort()
	err := runner.ForEach(ctx, len(run.strips), pl.gr.Workers, pool.get,
		func(ws *workerState, i int) {
			if cerr := pl.runStrip(ctx, ws, l, run, run.strips[i], commit); cerr != nil {
				abort()
			}
		})
	if st := opts.Stats; st != nil {
		st.Units += len(run.units)
		st.HandoffHits += run.hits
		st.HandoffMisses += run.misses
		// Planner fields describe the schedule itself, not this dispatch:
		// assignment, not accumulation, so re-evaluating the same layout
		// (resume, range leases) reports the same plan.
		st.ChainHeads = pl.sched.plan.heads
		st.DeltaEdges = pl.sched.plan.deltaEdges
		st.PredictedVolume = pl.sched.plan.predictedVol
	}
	if run.commitErr != nil {
		return run.commitErr
	}
	return err
}

// runStrip evaluates one strip shard by shard — whole shards, or the
// slices the strip's ends cut off — committing each shard it completes.
// It returns the commit error that must abort the run, if it hit one.
//
//sbgp:hotpath
func (pl *Plan) runStrip(ctx context.Context, ws *workerState, l *Layout, run *shardRun, st strip, commit func(p *ShardPartial) error) error {
	// Chain tail carry across the strip's interior shard boundaries. The
	// carry is worker-owned and reset per strip, so the tail fixed point
	// never crosses a goroutine.
	c := &ws.chainCarry
	c.reset()
	var commitErr error
	for s := st.start / l.ShardSize; s*l.ShardSize < st.end && commitErr == nil; s++ {
		shardStart := s * l.ShardSize
		shardEnd := min(shardStart+l.ShardSize, l.Cells)
		start, end := max(st.start, shardStart), min(st.end, shardEnd)
		acc := &ws.acc
		acc.begin(pl.ax.tasks)
		if !pl.evaluateRange(ctx, ws, run.memo, start, end) {
			break
		}
		whole := end-start == shardEnd-shardStart
		if whole {
			acc.partial(&ws.partial, s) // sorted and built outside the lock
		}
		run.mu.Lock()
		if run.commitErr != nil || ctx.Err() != nil {
			run.mu.Unlock()
			break
		}
		if !whole {
			if acc = run.foldSlice(s, end-start, shardEnd-shardStart, pl.ax.tasks, acc); acc != nil {
				acc.partial(&ws.partial, s)
			}
		}
		if acc != nil {
			commitErr = commit(&ws.partial)
			run.commitErr = commitErr
		}
		run.mu.Unlock()
	}
	if c.hits != 0 || c.misses != 0 {
		run.mu.Lock()
		run.hits += c.hits
		run.misses += c.misses
		run.mu.Unlock()
	}
	return commitErr
}

// RangeOptions configures EvaluateShardRange.
type RangeOptions struct {
	// Sink observes every completed shard's partial, exactly once, after
	// it is fully evaluated; each partial is the sink's to keep. Called
	// serially; a non-nil error aborts the evaluation. Delivery order is
	// scheduling-dependent.
	Sink func(*ShardPartial) error

	// Stats, when non-nil, accumulates dispatch and handoff counters.
	Stats *ShardStats

	// Pool keeps the engines warm across ranges (see RunOptions.Pool).
	Pool *EnginePool
}

// EvaluateShardRange evaluates the shards [r.Start, r.End) of layout l,
// streaming each completed partial to opts.Sink. A layout from a
// different grid (or the same grid under a different schedule) is
// rejected with a fingerprint mismatch rather than evaluated into
// meaningless shard indices. This is the worker half of a distributed
// evaluation: partials it emits merge byte-identically with partials
// from any other worker holding the same layout.
func (pl *Plan) EvaluateShardRange(ctx context.Context, l *Layout, r ShardRange, opts RangeOptions) error {
	return pl.RunShards(ctx, l, []ShardRange{r}, RunOptions{Pool: opts.Pool, Stats: opts.Stats},
		func(p *ShardPartial) error { return deliver(opts.Sink, p) })
}

// Result reduces a complete store into the grid's Result. The store must
// hold one of the plan's layouts; a missing shard is an error. The
// positional integer fold makes the Result byte-identical regardless of
// who produced which shard, in which order.
func (pl *Plan) Result(store *CheckpointWriter) (*Result, error) {
	if err := pl.check(&store.layout); err != nil {
		return nil, err
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	for s, ok := range store.have {
		if !ok {
			return nil, fmt.Errorf("sweep: missing partial for shard %d", s)
		}
	}
	return pl.reduce(store.acc), nil
}

// Merge folds a complete set of shard partials — one per shard of the
// layout, in any order — into the grid's Result through a memory-only
// store. Every partial is validated, and duplicate or missing shards are
// errors: the caller is expected to have deduplicated by shard index.
func (pl *Plan) Merge(l *Layout, partials []*ShardPartial) (*Result, error) {
	if err := pl.check(l); err != nil {
		return nil, err
	}
	store, err := OpenCheckpointWriter("", l, false)
	if err != nil {
		return nil, err
	}
	for _, p := range partials {
		added, err := store.Add(p)
		if err != nil {
			return nil, err
		}
		if !added {
			return nil, fmt.Errorf("sweep: duplicate partial for shard %d", p.Shard)
		}
	}
	return pl.Result(store)
}
