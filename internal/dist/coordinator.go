// Package dist is the distributed half of the sharded sweep evaluator:
// a coordinator that owns one job's canonical spec, shard layout, and
// checkpoint, and workers that lease contiguous chain-aligned shard
// ranges, evaluate them with their own engines, and ship exact integer
// partials back. The protocol is built so that the merged grid is
// byte-identical to a single-box run no matter how many workers
// participate, which ones die, or how often a partial is re-sent:
//
//   - Identity. Every message carries the grid fingerprint; a worker
//     whose locally planned layout disagrees refuses the job, and the
//     coordinator refuses its submissions. Shard indices are only ever
//     interpreted against one layout.
//   - Idempotence. The coordinator ingests partials into the same
//     sbgp.CheckpointWriter store the single-box evaluator commits to —
//     it only adds the lease protocol around it: first accepted partial
//     for a shard wins
//     (fsync'd), every re-send is a counted no-op. Duplicate leases,
//     duplicate submissions, and at-least-once retries are all safe.
//   - Loss. Leases expire on a missed heartbeat deadline and the
//     uncovered shards are re-leased to whoever asks next. A worker
//     that dies mid-lease costs only the wall-clock of re-evaluating
//     its unfinished shards.
//   - Reconciliation. The lease grant advertises the coordinator's
//     have-set as compact ranges; a reconnecting worker drops held
//     shards the coordinator already has and offers the rest, shipping
//     only what the coordinator still misses.
//
// Leases are cut on chain-aligned unit boundaries (Plan.Units),
// so RunDelta chains stay local to one worker and cross-shard delta
// handoff inside a lease is deterministic, exactly as on one box.
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sbgp"
)

// Protocol error sentinels. The HTTP layer maps them to status codes;
// embedded callers match them with errors.Is.
var (
	// ErrNoJob: no job is active (the previous one finished or none
	// started). Workers poll until one appears.
	ErrNoJob = errors.New("dist: no active job")
	// ErrFingerprintMismatch: the caller's fingerprint is not the active
	// job's — a worker built for a different grid. Refused loudly;
	// accepting would merge meaningless shard indices.
	ErrFingerprintMismatch = errors.New("dist: grid fingerprint mismatch")
	// ErrUnknownLease: heartbeat for a lease the coordinator no longer
	// tracks (expired and re-leased, or retired). Advisory — the
	// worker's submissions remain welcome; idempotence sorts them out.
	ErrUnknownLease = errors.New("dist: unknown or expired lease")
)

// Options tunes a Coordinator.
type Options struct {
	// LeaseShards is the target shards per lease (clipped to chain-
	// aligned unit boundaries). Default 16.
	LeaseShards int
	// LeaseTTL is the heartbeat deadline: a lease not renewed within it
	// expires and its shards are re-leased. Default 15s.
	LeaseTTL time.Duration
	// Standby is how long a worker should wait before re-asking when
	// every pending shard is currently leased. Default 500ms.
	Standby time.Duration
}

func (o Options) leaseShards() int {
	if o.LeaseShards <= 0 {
		return 16
	}
	return o.LeaseShards
}

func (o Options) leaseTTL() time.Duration {
	if o.LeaseTTL <= 0 {
		return 15 * time.Second
	}
	return o.LeaseTTL
}

func (o Options) standby() time.Duration {
	if o.Standby <= 0 {
		return 500 * time.Millisecond
	}
	return o.Standby
}

// Job describes one distributed evaluation for Coordinator.Run: the
// prepared plan and the layout it is sharded under (sim.JobPlan and
// sim.JobShardPlan); the coordinator owns everything in between.
type Job struct {
	// SpecJSON is the canonical job spec served to workers so they can
	// rebuild the identical simulation. Empty is allowed (workers must
	// then construct their evaluator out of band — the in-process
	// PlanEvaluator path for grids the wire format cannot carry).
	SpecJSON json.RawMessage
	// Plan cuts the lease units and reduces the completed store.
	Plan *sbgp.Plan
	// Layout is the job's shard layout, one of Plan's; every protocol
	// exchange is verified against its fingerprint.
	Layout *sbgp.ShardLayout
	// Checkpoint, when non-empty, makes ingestion durable: every
	// accepted partial is an fsync'd record in the single-box
	// checkpoint format, and Resume loads an existing file's shards as
	// already-have.
	Checkpoint string
	Resume     bool
	// Sink, when non-nil, observes every accepted partial exactly once
	// (resumed shards replayed first). Called serially; an error fails
	// the job.
	Sink func(*sbgp.ShardPartial) error
}

// lease is one outstanding grant: a worker's exclusive claim on a
// shard range until its heartbeat deadline passes.
type lease struct {
	id      string
	worker  string
	r       sbgp.ShardRange
	expires time.Time
}

// activeJob is the coordinator's state for the job currently running.
type activeJob struct {
	job       Job
	cw        *sbgp.CheckpointWriter
	unitStart []int // sorted unit start indices, for lease clipping
	leases    map[string]*lease
	nextLease int
	failed    error
	finished  bool
	done      chan struct{} // closed once finished or failed

	// ingestMu serializes Submit's ingestion (checkpoint append + sink)
	// so it can run *outside* the protocol mutex: the append fsyncs and
	// the sink is arbitrary caller code, and holding c.mu across either
	// would stall every lease, heartbeat, and stats call behind the
	// disk. Lock order: ingestMu before c.mu, never the reverse.
	ingestMu sync.Mutex
}

// drainIngest waits out any Submit that was already past the protocol
// check when the job was torn down. Once it returns — uninstall must
// have run first — no ingestion is in flight and none can start, so
// the checkpoint can be closed and the sink's owner can move on.
func (aj *activeJob) drainIngest() {
	aj.ingestMu.Lock()
	// Empty critical section on purpose: acquiring the mutex is the
	// barrier; any in-flight ingestion has finished once it is ours.
	aj.ingestMu.Unlock()
}

// Stats are the coordinator's cumulative protocol counters.
type Stats struct {
	Jobs           int `json:"jobs"`
	LeasesGranted  int `json:"leases_granted"`
	LeasesExpired  int `json:"leases_expired"`
	ShardsAccepted int `json:"shards_accepted"`
	Duplicates     int `json:"duplicates"`
	Rejected       int `json:"rejected"`

	// Snapshot of the active job (zero-valued when idle).
	Active       bool   `json:"active"`
	Fingerprint  string `json:"fingerprint,omitempty"`
	Shards       int    `json:"shards,omitempty"`
	Have         int    `json:"have,omitempty"`
	ActiveLeases int    `json:"active_leases,omitempty"`
}

// Coordinator runs distributed jobs one at a time and speaks the lease
// protocol to any number of workers. Safe for concurrent use; attach
// Handler to an HTTP server for remote workers or call the protocol
// methods directly for in-process ones.
type Coordinator struct {
	opts Options

	mu    sync.Mutex
	gen   int
	job   *activeJob
	stats Stats
	subs  map[chan struct{}]bool

	// now is the lease clock, swappable in tests.
	now func() time.Time
}

// NewCoordinator returns an idle coordinator.
func NewCoordinator(opts Options) *Coordinator {
	return &Coordinator{
		opts: opts,
		subs: map[chan struct{}]bool{},
		now:  time.Now,
	}
}

// Run executes one distributed job to completion: it opens (or
// resumes) the checkpoint, serves leases to workers until every shard
// is ingested, and merges. Cancelling ctx abandons the job (the
// checkpoint keeps the accepted shards for a resumed retry). Only one
// job may run at a time.
func (c *Coordinator) Run(ctx context.Context, job Job) (*sbgp.Result, error) {
	if job.Plan == nil || job.Layout == nil {
		return nil, errors.New("dist: job needs a plan and a layout")
	}
	cw, err := sbgp.OpenCheckpointWriter(job.Checkpoint, job.Layout, job.Resume)
	if err != nil {
		return nil, err
	}
	// Resumed shards replay to the sink before any worker can add more,
	// so the sink sees every shard exactly once.
	if job.Sink != nil {
		for _, p := range cw.Resumed() {
			if err := job.Sink(p); err != nil {
				cw.Close()
				return nil, err
			}
		}
	}
	aj := &activeJob{
		job:    job,
		cw:     cw,
		leases: map[string]*lease{},
		done:   make(chan struct{}),
	}
	for _, u := range job.Plan.Units(job.Layout) {
		aj.unitStart = append(aj.unitStart, u.Start)
	}
	c.mu.Lock()
	if c.job != nil {
		c.mu.Unlock()
		cw.Close()
		return nil, errors.New("dist: a job is already running")
	}
	c.gen++
	c.job = aj
	c.stats.Jobs++
	if cw.Complete() {
		aj.finished = true
		close(aj.done)
	}
	c.notifyLocked()
	c.mu.Unlock()

	select {
	case <-ctx.Done():
		c.uninstall(aj)
		aj.drainIngest()
		cw.Close()
		return nil, ctx.Err()
	case <-aj.done:
	}
	c.mu.Lock()
	failed := aj.failed
	c.mu.Unlock()
	c.uninstall(aj)
	aj.drainIngest()
	if cerr := cw.Close(); failed == nil && cerr != nil {
		failed = cerr
	}
	if failed != nil {
		return nil, failed
	}
	return job.Plan.Result(cw)
}

// uninstall detaches the job and wakes subscribers and standby pollers.
func (c *Coordinator) uninstall(aj *activeJob) {
	c.mu.Lock()
	if c.job == aj {
		c.job = nil
	}
	c.notifyLocked()
	c.mu.Unlock()
}

// failLocked records a job failure and releases Run (caller holds mu).
func (aj *activeJob) failLocked(err error) {
	if aj.finished {
		return
	}
	aj.finished = true
	aj.failed = err
	close(aj.done)
}

// activeLocked returns the active job if its fingerprint matches.
func (c *Coordinator) activeLocked(fingerprint string) (*activeJob, error) {
	if c.job == nil {
		return nil, ErrNoJob
	}
	if got := c.job.job.Layout.Fingerprint; fingerprint != got {
		return nil, fmt.Errorf("%w: caller has %s, active job is %s", ErrFingerprintMismatch, fingerprint, got)
	}
	return c.job, nil
}

// pruneLocked expires leases whose heartbeat deadline passed.
func (c *Coordinator) pruneLocked(aj *activeJob) {
	now := c.now()
	//sbgplint:ordered expiry is a pure set filter; visit order never reaches output
	for id, l := range aj.leases {
		if now.After(l.expires) {
			delete(aj.leases, id)
			c.stats.LeasesExpired++
		}
	}
}

// JobInfo describes the active job to a worker: the layout it must
// reproduce locally, plus the canonical spec to rebuild the simulation
// from.
type JobInfo struct {
	Fingerprint string          `json:"fingerprint"`
	Cells       int             `json:"cells"`
	Tasks       int             `json:"tasks"`
	ShardSize   int             `json:"shard_size"`
	Shards      int             `json:"shards"`
	Spec        json.RawMessage `json:"spec,omitempty"`
}

// JobInfo returns the active job's description, or ErrNoJob.
func (c *Coordinator) JobInfo() (*JobInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.job == nil {
		return nil, ErrNoJob
	}
	l := c.job.job.Layout
	return &JobInfo{
		Fingerprint: l.Fingerprint,
		Cells:       l.Cells,
		Tasks:       l.Tasks,
		ShardSize:   l.ShardSize,
		Shards:      l.Shards,
		Spec:        c.job.job.SpecJSON,
	}, nil
}

// LeaseGrant is the coordinator's answer to a lease request. Exactly
// one of three shapes: Complete (job has every shard; stop), a real
// lease (LeaseID non-empty), or standby (nothing leasable right now;
// wait StandbyMillis and ask again). Have always carries the
// coordinator's ingested shards as compact ranges — the reconciliation
// advertisement a returning worker diffs its held shards against.
type LeaseGrant struct {
	Complete      bool              `json:"complete,omitempty"`
	StandbyMillis int               `json:"standby_millis,omitempty"`
	LeaseID       string            `json:"lease_id,omitempty"`
	Range         sbgp.ShardRange   `json:"range,omitzero"`
	TTLMillis     int               `json:"ttl_millis,omitempty"`
	Have          []sbgp.ShardRange `json:"have,omitempty"`
}

// Lease grants the next pending shard range to a worker (or reports
// complete/standby). The range starts at the first shard neither
// ingested nor under an unexpired lease and extends through contiguous
// such shards up to roughly Options.LeaseShards, clipped to a chain-
// aligned unit boundary so no RunDelta chain spans two workers.
func (c *Coordinator) Lease(worker, fingerprint string) (*LeaseGrant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	aj, err := c.activeLocked(fingerprint)
	if err != nil {
		return nil, err
	}
	grant := &LeaseGrant{Have: aj.cw.HaveRanges()}
	if aj.finished || aj.cw.Complete() {
		grant.Complete = true
		return grant, nil
	}
	c.pruneLocked(aj)
	r, ok := c.nextRangeLocked(aj)
	if !ok {
		grant.StandbyMillis = int(c.opts.standby() / time.Millisecond)
		return grant, nil
	}
	ttl := c.opts.leaseTTL()
	aj.nextLease++
	l := &lease{
		id:      fmt.Sprintf("lease-%d-%d", c.gen, aj.nextLease),
		worker:  worker,
		r:       r,
		expires: c.now().Add(ttl),
	}
	aj.leases[l.id] = l
	c.stats.LeasesGranted++
	grant.LeaseID = l.id
	grant.Range = r
	grant.TTLMillis = int(ttl / time.Millisecond)
	return grant, nil
}

// nextRangeLocked picks the next leasable shard range: the first
// uncovered shard, extended through contiguous uncovered shards, cut
// at the last unit boundary within the target size — or through the
// end of its own unit when the unit alone exceeds the target, so a
// chain is never split across leases.
func (c *Coordinator) nextRangeLocked(aj *activeJob) (sbgp.ShardRange, bool) {
	shards := aj.job.Layout.Shards
	covered := make([]bool, shards)
	for _, hr := range aj.cw.HaveRanges() {
		for s := hr.Start; s < hr.End; s++ {
			covered[s] = true
		}
	}
	//sbgplint:ordered lease ranges OR into a dense covered bitmap; commutative
	for _, l := range aj.leases {
		for s := l.r.Start; s < l.r.End && s < shards; s++ {
			covered[s] = true
		}
	}
	start := -1
	for s := 0; s < shards; s++ {
		if !covered[s] {
			start = s
			break
		}
	}
	if start < 0 {
		return sbgp.ShardRange{}, false
	}
	runEnd := start + 1
	for runEnd < shards && !covered[runEnd] {
		runEnd++
	}
	end := start + c.opts.leaseShards()
	if end >= runEnd {
		return sbgp.ShardRange{Start: start, End: runEnd}, true
	}
	// Clip to the largest unit start in (start, end]; if the unit
	// containing start alone exceeds the target, take the whole unit
	// (bounded by runEnd) rather than split its chains.
	us := aj.unitStart
	i := sort.SearchInts(us, end+1) - 1 // largest unit start ≤ end
	if i >= 0 && us[i] > start {
		return sbgp.ShardRange{Start: start, End: us[i]}, true
	}
	j := sort.SearchInts(us, start+1) // first unit start > start
	unitEnd := shards
	if j < len(us) {
		unitEnd = us[j]
	}
	if unitEnd > runEnd {
		unitEnd = runEnd
	}
	return sbgp.ShardRange{Start: start, End: unitEnd}, true
}

// Heartbeat renews a lease's deadline. ErrUnknownLease means the lease
// expired and may have been re-granted; the worker should finish and
// submit anyway — ingestion is idempotent — but expect wasted work.
func (c *Coordinator) Heartbeat(leaseID, fingerprint string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	aj, err := c.activeLocked(fingerprint)
	if err != nil {
		return err
	}
	c.pruneLocked(aj)
	l, ok := aj.leases[leaseID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownLease, leaseID)
	}
	l.expires = c.now().Add(c.opts.leaseTTL())
	return nil
}

// Offer is the reconciliation round-trip: a worker holding finished
// shards (typically after losing its connection mid-lease) offers
// their indices and learns which the coordinator still wants. Shipping
// only the wanted ones keeps reconnect transfer proportional to what
// was actually lost.
func (c *Coordinator) Offer(fingerprint string, shards []int) (want []int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	aj, err := c.activeLocked(fingerprint)
	if err != nil {
		return nil, err
	}
	for _, s := range shards {
		if s >= 0 && s < aj.job.Layout.Shards && !aj.cw.Have(s) {
			want = append(want, s)
		}
	}
	return want, nil
}

// Submit ingests a batch of shard partials. Accepted partials are
// fsync'd (durable checkpoints) and streamed to the job sink;
// duplicates are counted no-ops — re-sends after lost acks, expired
// leases, or coordinator restarts are all safe. A malformed partial
// rejects the batch without harming the job; a checkpoint append
// failure (durability gone) fails the job.
//
// Ingestion runs under the job's dedicated ingest mutex, not the
// protocol mutex: the checkpoint append fsyncs, and with c.mu held
// across it one slow disk would stall every lease, heartbeat, and
// stats call. c.mu is only taken before (protocol checks) and after
// (counters, lease retirement, completion).
func (c *Coordinator) Submit(worker, fingerprint string, partials []*sbgp.ShardPartial) (accepted, duplicates int, err error) {
	c.mu.Lock()
	aj, err := c.activeLocked(fingerprint)
	if err != nil {
		c.mu.Unlock()
		return 0, 0, err
	}
	if aj.finished {
		// Late batch after completion (or failure): everything is a
		// duplicate from the protocol's point of view — and the stats
		// counter must agree with the answer the worker gets.
		c.stats.Duplicates += len(partials)
		c.mu.Unlock()
		return 0, len(partials), nil
	}
	// A batch can arrive after its lease expired (and after the range
	// was re-leased to someone else). Expire dead leases before the
	// retirement loop below, so a late submit can never retire an
	// expired lease as if it were live — the partials still ingest
	// idempotently, but LeasesExpired and ActiveLeases stay honest.
	c.pruneLocked(aj)
	c.mu.Unlock()

	aj.ingestMu.Lock()
	// Re-check now that ingestion is exclusively ours: the job may have
	// finished or been torn down while this call waited. drainIngest's
	// barrier guarantees teardown strictly precedes this check, so a
	// stale batch can never touch a closed checkpoint or a sink whose
	// owner has moved on.
	c.mu.Lock()
	stale := aj.finished || c.job != aj
	if stale {
		c.stats.Duplicates += len(partials)
	}
	c.mu.Unlock()
	if stale {
		aj.ingestMu.Unlock()
		return 0, len(partials), nil
	}
	var failure error // checkpoint or sink failure: fails the job
	var badBatch error
	for _, p := range partials {
		if verr := aj.job.Layout.ValidatePartial(p); verr != nil {
			badBatch = verr
			break
		}
		//sbgplint:allow lockblock ingestMu is the dedicated append serializer, not the protocol mutex; holding it here is the design
		added, aerr := aj.cw.Add(p)
		if aerr != nil {
			failure = fmt.Errorf("dist: checkpoint append: %w", aerr)
			break
		}
		if !added {
			duplicates++
			continue
		}
		accepted++
		if aj.job.Sink != nil {
			if serr := aj.job.Sink(p); serr != nil {
				failure = serr
				break
			}
		}
	}
	aj.ingestMu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.ShardsAccepted += accepted
	c.stats.Duplicates += duplicates
	if failure != nil {
		aj.failLocked(failure)
		return accepted, duplicates, failure
	}
	// Retire leases whose range is now fully ingested, so their shards
	// never block nextRangeLocked and Stats reflects live claims only.
	//sbgplint:ordered retirement deletes each fully-ingested lease independently
	for id, l := range aj.leases {
		done := true
		for s := l.r.Start; s < l.r.End; s++ {
			if !aj.cw.Have(s) {
				done = false
				break
			}
		}
		if done {
			delete(aj.leases, id)
		}
	}
	if aj.cw.Complete() && !aj.finished {
		aj.finished = true
		close(aj.done)
	}
	c.notifyLocked()
	if badBatch != nil {
		c.stats.Rejected++
		return accepted, duplicates, badBatch
	}
	return accepted, duplicates, nil
}

// Stats returns a snapshot of the protocol counters and active job.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	if c.job != nil {
		c.pruneLocked(c.job)
		st = c.stats
		st.Active = true
		st.Fingerprint = c.job.job.Layout.Fingerprint
		st.Shards = c.job.job.Layout.Shards
		st.Have = c.job.cw.HaveCount()
		st.ActiveLeases = len(c.job.leases)
	}
	return st
}

// Subscribe registers a coalescing wakeup channel that fires on every
// ingestion change and job transition (and once immediately).
func (c *Coordinator) Subscribe() (wake <-chan struct{}, unsubscribe func()) {
	// The initial wakeup goes into the buffered channel before it is
	// registered — and before the lock: the send can never block (the
	// channel is fresh with capacity 1), and no send happens under c.mu.
	ch := make(chan struct{}, 1)
	ch <- struct{}{}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs[ch] = true
	return ch, func() {
		c.mu.Lock()
		delete(c.subs, ch)
		c.mu.Unlock()
	}
}

// notifyLocked wakes every subscriber (caller holds mu); sends
// coalesce so a slow subscriber never blocks the protocol.
func (c *Coordinator) notifyLocked() {
	//sbgplint:ordered coalescing wakeups; receivers learn only that something changed
	for ch := range c.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// RunSim runs one simulation's job through the coordinator: take its
// prepared plan and layout, serve it to workers, reduce the store they
// fill. This is the service.Distributor shape — the resident daemon's
// evaluate path calls it in place of sim.EvaluateJob, with the same
// checkpoint, resume, and sink semantics and byte-identical results.
func (c *Coordinator) RunSim(ctx context.Context, sim *sbgp.Simulation, spec *sbgp.JobSpec, checkpoint string, resume bool, sink func(*sbgp.ShardPartial) error) (*sbgp.Result, error) {
	pl, err := sim.JobPlan()
	if err != nil {
		return nil, err
	}
	layout, _, err := sim.JobShardPlan()
	if err != nil {
		return nil, err
	}
	var specJSON json.RawMessage
	if spec != nil {
		// Workers get the canonical spec with the coordinator-side
		// checkpoint/resume knobs cleared: durability is the
		// coordinator's business, and a spec carrying Resume without
		// Checkpoint would not validate.
		ws := spec.Canonical()
		ws.Checkpoint, ws.Resume = "", false
		specJSON, err = json.Marshal(ws)
		if err != nil {
			return nil, err
		}
	}
	return c.Run(ctx, Job{
		SpecJSON:   specJSON,
		Plan:       pl,
		Layout:     layout,
		Checkpoint: checkpoint,
		Resume:     resume,
		Sink:       sink,
	})
}
