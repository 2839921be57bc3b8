package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
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
}

// ShardPlan returns the layout the evaluator shards the plan under.
func (e *PlanEvaluator) ShardPlan() (*sbgp.ShardLayout, error) { return e.Layout, nil }

// EvaluateShards evaluates one shard range of the plan.
func (e *PlanEvaluator) EvaluateShards(r sbgp.ShardRange, sink func(*sbgp.ShardPartial) error) error {
	if e.Pool != nil {
		defer e.Pool.Release()
	}
	return e.Plan.EvaluateShardRange(e.Ctx, e.Layout, r, sbgp.ShardRangeOptions{Sink: sink, Pool: e.Pool})
}

// WorkerStats counts one worker's protocol activity. ShardsShipped +
// ShardsSkipped partition the shards the worker finished: shipped ones
// the coordinator was missing, skipped ones it already had — the
// reconciliation transfer accounting.
type WorkerStats struct {
	Leases          int
	ShardsEvaluated int
	ShardsShipped   int
	ShardsSkipped   int
}

// Worker pulls leases from a coordinator, evaluates them locally, and
// ships the partials back. It tolerates a flaky coordinator link:
// finished shards are held across transport failures and reconciled on
// reconnect (offer → want → submit), so nothing is lost and nothing
// already ingested is re-sent.
type Worker struct {
	// Base is the coordinator's base URL (e.g. "http://127.0.0.1:8379").
	Base string
	// ID names the worker in lease requests (diagnostics only).
	ID string
	// Open builds the evaluator for a job. Nil uses the spec-driven
	// default: rebuild the simulation from the job's canonical spec.
	Open func(ctx context.Context, spec json.RawMessage) (Evaluator, error)
	// Workers is the evaluation parallelism the default Open configures
	// (0: the library default).
	Workers int
	// Poll is the retry/poll interval for an idle or unreachable
	// coordinator. Default 500ms.
	Poll time.Duration
	// OneJob makes Run return after serving one job to completion
	// instead of polling for the next.
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
// fingerprint).
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		info, err := w.jobInfo(ctx)
		if err != nil {
			// Idle coordinator or transport failure: poll again.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			if serr := sleepCtx(ctx, w.poll()); serr != nil {
				return serr
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
	return &PlanEvaluator{Ctx: ctx, Plan: pl, Layout: layout, Pool: &w.pool}, nil
}

// serve is the lease loop for one job: lease, evaluate, ship, repeat,
// until the coordinator reports the job complete (or gone). Finished
// shards are held in memory across transport failures; every pass
// first reconciles them against the grant's have-set so a reconnect
// ships only what the coordinator is missing.
func (w *Worker) serve(ctx context.Context, ev Evaluator, fingerprint string) error {
	held := map[int]*sbgp.ShardPartial{}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := w.lease(ctx, fingerprint)
		if err != nil {
			if errors.Is(err, ErrNoJob) || errors.Is(err, ErrFingerprintMismatch) {
				// The job finished (and was uninstalled) or was replaced
				// under us: this job is over for this worker.
				return nil
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			if serr := sleepCtx(ctx, w.poll()); serr != nil {
				return serr
			}
			continue
		}
		// Reconciliation step 1: drop held shards the coordinator
		// already advertises — somebody else (or an earlier send whose
		// ack we lost) delivered them.
		//sbgplint:ordered deletion plus a counter bump per shard; order-free (ship sorts before offering)
		for s := range held {
			for _, hr := range grant.Have {
				if s >= hr.Start && s < hr.End {
					delete(held, s)
					w.mu.Lock()
					w.stats.ShardsSkipped++
					w.mu.Unlock()
					break
				}
			}
		}
		// Reconciliation step 2: offer the rest, ship only what is
		// still wanted.
		if len(held) > 0 {
			if err := w.ship(ctx, fingerprint, held); err != nil {
				if errors.Is(err, ErrNoJob) || errors.Is(err, ErrFingerprintMismatch) {
					return nil
				}
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return err
				}
				if serr := sleepCtx(ctx, w.poll()); serr != nil {
					return serr
				}
				continue
			}
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
		evalErr := ev.EvaluateShards(grant.Range, func(p *sbgp.ShardPartial) error {
			held[p.Shard] = p
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
		if evalErr != nil {
			// Cancellation (a killed worker) or a genuine evaluation
			// failure; either way this worker stops. Held shards die
			// with it — the lease expires and others re-evaluate.
			return evalErr
		}
		if err := w.ship(ctx, fingerprint, held); err != nil {
			if errors.Is(err, ErrNoJob) || errors.Is(err, ErrFingerprintMismatch) {
				return nil
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			// Transport failure: keep holding; the next pass reconciles.
			if serr := sleepCtx(ctx, w.poll()); serr != nil {
				return serr
			}
		}
	}
}

// ship reconciles and delivers the held shards: offer their indices,
// learn which the coordinator still wants, submit exactly those. On
// success held is empty; on error it is preserved for the next pass.
func (w *Worker) ship(ctx context.Context, fingerprint string, held map[int]*sbgp.ShardPartial) error {
	shards := make([]int, 0, len(held))
	for s := range held {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	want, err := w.offer(ctx, fingerprint, shards)
	if err != nil {
		return err
	}
	wantSet := make(map[int]bool, len(want))
	for _, s := range want {
		wantSet[s] = true
	}
	for _, s := range shards {
		if !wantSet[s] {
			delete(held, s)
			w.mu.Lock()
			w.stats.ShardsSkipped++
			w.mu.Unlock()
		}
	}
	if len(want) == 0 {
		return nil
	}
	partials := make([]*sbgp.ShardPartial, 0, len(want))
	for _, s := range want {
		if p := held[s]; p != nil {
			partials = append(partials, p)
		}
	}
	// Chunked submission bounds every request well under the
	// coordinator's 1 MiB body cap, however many shards a reconnect
	// accumulated. A mid-loop failure preserves exactly the unshipped
	// tail in held for the next reconciliation pass.
	for len(partials) > 0 {
		batch := partials
		if len(batch) > submitBatch {
			batch = batch[:submitBatch]
		}
		if _, _, err := w.submit(ctx, fingerprint, batch); err != nil {
			return err
		}
		w.mu.Lock()
		w.stats.ShardsShipped += len(batch)
		w.mu.Unlock()
		for _, p := range batch {
			delete(held, p.Shard)
		}
		partials = partials[len(batch):]
	}
	return nil
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

// statusError maps a coordinator error response to the protocol
// sentinels so callers can errors.Is against them across the wire.
func statusError(code int, body []byte) error {
	var msg struct {
		Error string `json:"error"`
	}
	detail := string(bytes.TrimSpace(body))
	if json.Unmarshal(body, &msg) == nil && msg.Error != "" {
		detail = msg.Error
	}
	switch code {
	case http.StatusNotFound:
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
		return statusError(resp.StatusCode, data)
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

func (w *Worker) offer(ctx context.Context, fingerprint string, shards []int) ([]int, error) {
	var resp offerResponse
	err := w.call(ctx, http.MethodPost, "/dist/v1/offer", offerRequest{Worker: w.ID, Fingerprint: fingerprint, Shards: shards}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Want, nil
}

func (w *Worker) submit(ctx context.Context, fingerprint string, partials []*sbgp.ShardPartial) (accepted, duplicates int, err error) {
	var resp submitResponse
	err = w.call(ctx, http.MethodPost, "/dist/v1/submit", submitRequest{Worker: w.ID, Fingerprint: fingerprint, Partials: partials}, &resp)
	if err != nil {
		return 0, 0, err
	}
	return resp.Accepted, resp.Duplicates, nil
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
