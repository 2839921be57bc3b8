package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sbgp"
)

// Evaluator is what a worker evaluates leases with: a local
// reconstruction of the job that can verify its identity (ShardPlan's
// layout must reproduce the coordinator's fingerprint exactly) and
// evaluate any shard range of it.
type Evaluator interface {
	ShardPlan() (*sbgp.ShardLayout, error)
	EvaluateShards(r sbgp.ShardRange, sink func(*sbgp.ShardPartial) error) error
}

// PlanEvaluator is the one evaluator: a prepared plan and the layout it
// is sharded under. The default Open builds it from the simulation the
// coordinator's canonical spec describes; in-process workers for grids
// the JobSpec wire format cannot carry (in-memory graphs, prebuilt
// deployments, per-destination series) build it from the same grid and
// graph as the coordinator's job — the fingerprint check enforces that.
type PlanEvaluator struct {
	// Ctx bounds every evaluation (nil: never cancelled).
	Ctx    context.Context
	Plan   *sbgp.Plan
	Layout *sbgp.ShardLayout
	// Pool, when non-nil, keeps this worker's engines warm across leases
	// — and jobs: any pool serves any plan. It must be exclusive to one
	// evaluator at a time: every lease releases it.
	Pool *sbgp.EnginePool
	// Stats, when non-nil, receives every range's counters (ShardStats.Fold).
	Stats *sbgp.ShardStats
}

// ShardPlan returns the layout the evaluator shards the plan under.
func (e *PlanEvaluator) ShardPlan() (*sbgp.ShardLayout, error) { return e.Layout, nil }

// EvaluateShards evaluates one shard range of the plan.
func (e *PlanEvaluator) EvaluateShards(r sbgp.ShardRange, sink func(*sbgp.ShardPartial) error) error {
	if e.Pool != nil {
		defer e.Pool.Release()
	}
	return e.Plan.EvaluateShardRange(e.Ctx, e.Layout, r, sbgp.ShardRangeOptions{Sink: sink, Pool: e.Pool, Stats: e.Stats})
}

// WorkerStats counts one worker's protocol activity — the
// reconciliation transfer accounting. ShardsShipped counts the finished
// shards the worker submitted; ShardsSkipped counts the ones it dropped
// because a lease grant's have-set already covered them. A shipped shard
// can still be a duplicate at the coordinator: a lease that expired
// while this worker evaluated it, and that a rival delivered first.
type WorkerStats struct {
	Leases          int
	ShardsEvaluated int
	ShardsShipped   int
	ShardsSkipped   int
}

// Worker pulls leases from a coordinator, evaluates them locally, and
// ships the partials back. It tolerates a flaky coordinator link:
// finished shards are held across transport failures and reconciled
// against the next grant's have-set, so nothing is lost and nothing the
// coordinator advertises is re-sent.
type Worker struct {
	// Base is the coordinator's base URL (e.g. "http://127.0.0.1:8379").
	Base string
	// ID names the worker in lease requests (diagnostics only).
	ID string
	// Open builds the evaluator for a job. Nil uses the spec-driven
	// default: rebuild the simulation from the job's canonical spec.
	// Only the default's evaluator sends the coordinator its counters.
	Open func(ctx context.Context, spec json.RawMessage) (Evaluator, error)
	// Workers is the evaluation parallelism the default Open configures
	// (0: the library default).
	Workers int
	// Poll is the retry interval after a failed call (an unreachable
	// coordinator). An idle one is not polled: its job route waits for
	// a job. Default 500ms.
	Poll time.Duration
	// OneJob makes Run return after serving one job to completion
	// instead of waiting for the next.
	OneJob bool
	// Throttle adds an artificial delay after each evaluated shard.
	// The engines are fast enough that a whole grid can finish in
	// milliseconds; chaos and smoke tests use this to hold a worker
	// mid-lease long enough to kill it there.
	Throttle time.Duration
	// Client is the HTTP client (nil: http.DefaultClient).
	Client *http.Client

	mu    sync.Mutex
	stats WorkerStats

	// pool keeps the default Open's engines for the worker's life (pooled
	// engines follow each job); only Run's goroutine touches it.
	pool sbgp.EnginePool
	// unsent are the default Open's counters since the last acknowledged
	// submit; only Run's goroutine touches them.
	unsent sbgp.ShardStats
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *Worker) poll() time.Duration {
	if w.Poll <= 0 {
		return 500 * time.Millisecond
	}
	return w.Poll
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// Run serves jobs until ctx is cancelled (or, with OneJob, until one
// job completes). It returns nil on a clean OneJob completion, the
// context error on cancellation, and a hard error when the job cannot
// be served at all (evaluator construction failure, foreign
// fingerprint, a coordinator that does not serve a route this worker
// calls).
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		info, err := w.jobInfo(ctx)
		if err != nil {
			// The job route waits for a job before it answers 404, so
			// an idle coordinator is asked again at once; a transport
			// failure is retried after one poll interval.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, errProtocol) {
				return err
			}
			if !errors.Is(err, ErrNoJob) {
				if serr := sleepCtx(ctx, w.poll()); serr != nil {
					return serr
				}
			}
			continue
		}
		ev, err := w.openEvaluator(ctx, info.Spec)
		if err != nil {
			return err
		}
		l, err := ev.ShardPlan()
		if err != nil {
			return err
		}
		// The identity gate: a worker whose local plan disagrees with
		// the coordinator in any way must not evaluate — its shard
		// indices would mean different cells.
		if l.Fingerprint != info.Fingerprint || l.Cells != info.Cells ||
			l.Tasks != info.Tasks || l.ShardSize != info.ShardSize || l.Shards != info.Shards {
			return fmt.Errorf("dist: worker %s refuses foreign job: local fingerprint %s (cells=%d tasks=%d shard_size=%d shards=%d), coordinator fingerprint %s (cells=%d tasks=%d shard_size=%d shards=%d)",
				w.ID, l.Fingerprint, l.Cells, l.Tasks, l.ShardSize, l.Shards,
				info.Fingerprint, info.Cells, info.Tasks, info.ShardSize, info.Shards)
		}
		if err := w.serve(ctx, ev, l.Fingerprint); err != nil {
			return err
		}
		if w.OneJob {
			return nil
		}
	}
}

func (w *Worker) openEvaluator(ctx context.Context, spec json.RawMessage) (Evaluator, error) {
	if w.Open != nil {
		return w.Open(ctx, spec)
	}
	if len(spec) == 0 {
		return nil, errors.New("dist: job carries no spec and the worker has no custom Open")
	}
	js, err := sbgp.ReadJobSpec(bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	opts := []sbgp.Option{sbgp.WithContext(ctx)}
	if w.Workers > 0 {
		opts = append(opts, sbgp.WithWorkers(w.Workers))
	}
	sc, err := sbgp.FromJobSpec(js, opts...)
	if err != nil {
		return nil, err
	}
	sim, err := sc.Simulate()
	if err != nil {
		return nil, err
	}
	pl, err := sim.JobPlan()
	if err != nil {
		return nil, err
	}
	layout, _, err := sim.JobShardPlan()
	if err != nil {
		return nil, err
	}
	w.unsent = sbgp.ShardStats{} // a previous job's, whose last submit failed
	return &PlanEvaluator{Ctx: ctx, Plan: pl, Layout: layout, Pool: &w.pool, Stats: &w.unsent}, nil
}

// serve is the lease loop for one job: evaluate a lease, ship it and
// take the next lease from the submit's reply, until the coordinator
// reports the job complete (or gone). A worker leases through
// /dist/v1/lease only to join, after a standby, and after a failed
// call. Finished shards are held in memory across transport failures.
// Reconciliation is one rule: every /dist/v1/lease grant carries the
// coordinator's have-set, the worker drops the held shards it covers
// and ships the rest.
func (w *Worker) serve(ctx context.Context, ev Evaluator, fingerprint string) error {
	var held []*sbgp.ShardPartial
	var grant *LeaseGrant // the next grant, when a submit's reply carried one
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if grant == nil {
			g, err := w.lease(ctx, fingerprint)
			if err == nil {
				held = w.dropHave(held, g.Have)
				held, _, err = w.ship(ctx, fingerprint, held, false)
			}
			if err != nil {
				if again, err := w.retry(ctx, err); !again {
					return err
				}
				continue
			}
			grant = g
		}
		if grant.Complete {
			return nil
		}
		if grant.LeaseID == "" {
			standby := time.Duration(grant.StandbyMillis) * time.Millisecond
			if standby <= 0 {
				standby = w.poll()
			}
			if serr := sleepCtx(ctx, standby); serr != nil {
				return serr
			}
			grant = nil
			continue
		}
		w.mu.Lock()
		w.stats.Leases++
		w.mu.Unlock()
		// Heartbeats renew the lease at a third of its TTL while the
		// evaluation runs; failures are advisory (an expired lease only
		// risks duplicated work, never correctness).
		hbCtx, stopHB := context.WithCancel(ctx)
		hbDone := make(chan struct{})
		go func() {
			defer close(hbDone)
			w.heartbeatLoop(hbCtx, fingerprint, grant.LeaseID, time.Duration(grant.TTLMillis)*time.Millisecond)
		}()
		before := len(held)
		evalErr := ev.EvaluateShards(grant.Range, func(p *sbgp.ShardPartial) error {
			held = append(held, p)
			w.mu.Lock()
			w.stats.ShardsEvaluated++
			w.mu.Unlock()
			if w.Throttle > 0 {
				return sleepCtx(ctx, w.Throttle)
			}
			return nil
		})
		stopHB()
		<-hbDone
		// A range that ends short of a shard would be re-leased and
		// fall short again forever: that is an evaluation failure too.
		if got, want := len(held)-before, grant.Range.End-grant.Range.Start; evalErr == nil && got != want {
			evalErr = fmt.Errorf("dist: shards [%d,%d) evaluated to %d partials, want %d", grant.Range.Start, grant.Range.End, got, want)
		}
		if evalErr != nil {
			// Either way this worker stops. Cancellation (a killed
			// worker) strands the lease: it expires, others re-evaluate
			// it and held shards die with this worker. A genuine
			// evaluation failure would fail every worker alike, so it
			// fails the job, reported on a submit; a report that does
			// not arrive leaves the job to the lease's expiry.
			if ctx.Err() == nil {
				_, _ = w.submit(ctx, submitRequest{Fingerprint: fingerprint, Error: evalErr.Error()})
			}
			return evalErr
		}
		// Ship and take the next grant from the reply. A transport
		// failure keeps the unshipped shards held; the next /lease
		// grant's have-set reconciles them.
		var err error
		if held, grant, err = w.ship(ctx, fingerprint, held, true); err != nil {
			if again, err := w.retry(ctx, err); !again {
				return err
			}
		}
	}
}

// retry triages a failed protocol call in serve: whether to try again,
// and if not, what serve returns. The job being over for this worker
// (finished and uninstalled, or replaced) ends serve with nil, a done
// ctx or a protocol mismatch with the error; anything else is a
// transport failure, retried after one poll.
func (w *Worker) retry(ctx context.Context, err error) (again bool, _ error) {
	switch {
	case errors.Is(err, ErrNoJob), errors.Is(err, ErrFingerprintMismatch):
		return false, nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), errors.Is(err, errProtocol):
		return false, err
	}
	if err := sleepCtx(ctx, w.poll()); err != nil {
		return false, err
	}
	return true, nil
}

// dropHave removes from held the shards the coordinator's have-set
// covers — a rival, or an earlier submit whose ack was lost, delivered
// them — and counts them as skipped.
func (w *Worker) dropHave(held []*sbgp.ShardPartial, have []sbgp.ShardRange) []*sbgp.ShardPartial {
	kept := held[:0]
	for _, p := range held {
		if !covers(have, p.Shard) {
			kept = append(kept, p)
		}
	}
	w.mu.Lock()
	w.stats.ShardsSkipped += len(held) - len(kept)
	w.mu.Unlock()
	return kept
}

func covers(have []sbgp.ShardRange, s int) bool {
	for _, r := range have {
		if s >= r.Start && s < r.End {
			return true
		}
	}
	return false
}

// ship submits the held shards in batches and returns the ones still
// unshipped: none on success, the unsent tail on error. With next set
// the last batch asks for the next lease, and ship returns the grant
// its reply carries (nil when nothing was held: serve then asks
// /dist/v1/lease). Chunking bounds every request well under the
// coordinator's 1 MiB body cap, however many shards a reconnect
// accumulated.
func (w *Worker) ship(ctx context.Context, fingerprint string, held []*sbgp.ShardPartial, next bool) ([]*sbgp.ShardPartial, *LeaseGrant, error) {
	var grant *LeaseGrant
	for i := 0; i < len(held); i += submitBatch {
		end := min(i+submitBatch, len(held))
		g, err := w.submit(ctx, submitRequest{Fingerprint: fingerprint, Partials: held[i:end], Lease: next && end == len(held)})
		if err != nil {
			return held[i:], nil, err
		}
		grant = g
		w.mu.Lock()
		w.stats.ShardsShipped += end - i
		w.mu.Unlock()
	}
	return held[:0], grant, nil
}

// submitBatch is the maximum shards per submit request. A shard partial
// is a few KB of JSON at worst, so 256 of them stay comfortably inside
// the coordinator's 1 MiB request-body cap.
const submitBatch = 256

func (w *Worker) heartbeatLoop(ctx context.Context, fingerprint, leaseID string, ttl time.Duration) {
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.heartbeat(ctx, fingerprint, leaseID)
		}
	}
}

// ---- HTTP client plumbing ----

// errProtocol marks a reply that means the worker and the server do
// not speak the same protocol: a 404 that is not the coordinator's own
// JSON error, i.e. a route the server does not serve. Coordinator and
// workers come from one build, so this is refused, never retried.
var errProtocol = errors.New("dist: protocol mismatch")

// statusError maps a coordinator error response to the protocol
// sentinels so callers can errors.Is against them across the wire.
func statusError(path string, code int, body []byte) error {
	var msg struct {
		Error string `json:"error"`
	}
	detail := string(bytes.TrimSpace(body))
	coordinatorError := json.Unmarshal(body, &msg) == nil && msg.Error != ""
	if coordinatorError {
		detail = msg.Error
	}
	switch code {
	case http.StatusNotFound:
		if !coordinatorError {
			return fmt.Errorf("%w: the server does not serve %s (404: %s)", errProtocol, path, detail)
		}
		return fmt.Errorf("%w (%s)", ErrNoJob, detail)
	case http.StatusConflict:
		return fmt.Errorf("%w (%s)", ErrFingerprintMismatch, detail)
	case http.StatusGone:
		return fmt.Errorf("%w (%s)", ErrUnknownLease, detail)
	default:
		return fmt.Errorf("dist: coordinator returned %d: %s", code, detail)
	}
}

// call performs one JSON round-trip (GET when in is nil).
func (w *Worker) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return statusError(path, resp.StatusCode, data)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func (w *Worker) jobInfo(ctx context.Context) (*JobInfo, error) {
	var info JobInfo
	if err := w.call(ctx, http.MethodGet, "/dist/v1/job", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

func (w *Worker) lease(ctx context.Context, fingerprint string) (*LeaseGrant, error) {
	var grant LeaseGrant
	err := w.call(ctx, http.MethodPost, "/dist/v1/lease", leaseRequest{Worker: w.ID, Fingerprint: fingerprint}, &grant)
	if err != nil {
		return nil, err
	}
	return &grant, nil
}

func (w *Worker) heartbeat(ctx context.Context, fingerprint, leaseID string) error {
	return w.call(ctx, http.MethodPost, "/dist/v1/heartbeat", heartbeatRequest{LeaseID: leaseID, Fingerprint: fingerprint}, nil)
}

// submit sends one submit, with the counters gathered since the last
// acknowledged one, and returns the grant its reply carries.
func (w *Worker) submit(ctx context.Context, req submitRequest) (*LeaseGrant, error) {
	req.Worker = w.ID
	if w.unsent != (sbgp.ShardStats{}) {
		req.Stats = &w.unsent
	}
	var resp submitResponse
	err := w.call(ctx, http.MethodPost, "/dist/v1/submit", req, &resp)
	if err == nil {
		w.unsent = sbgp.ShardStats{}
	}
	return resp.Grant, err
}

// sleepCtx sleeps d or returns early with ctx's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
