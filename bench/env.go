package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sbgp"
	"sbgp/internal/dist"
	"sbgp/internal/service"
)

// jobTimeout bounds one job; a job that exceeds it counts as failed.
const jobTimeout = 60 * time.Second

// jobResult is what one closed-loop job reports back to the timed loop.
type jobResult struct {
	bytes []byte  // the job's result JSON
	wall  float64 // seconds the job's timed operations took
	cells int     // grid cells the job evaluated
}

// env is one workload's execution path, set up once per run.
type env interface {
	// job pushes one spec through the path. jobID and parent tag the
	// spans it records on tr (nil when untraced).
	job(tr *tracer, jobID, parent int, spec *sbgp.JobSpec) (jobResult, error)
	close() error
}

func openEnv(path, dir string) (env, error) {
	switch path {
	case pathOneShot:
		return oneShotEnv{}, nil
	case pathDurable:
		return &durableEnv{dir: dir}, nil
	case pathDaemon:
		return openDaemon(dir, nil, nil)
	case pathDist:
		return openDist(dir, nil)
	}
	return nil, fmt.Errorf("unknown path %q", path)
}

// ---- one-shot: what `bgpsim -job spec.json` does ----

type oneShotEnv struct{}

func (oneShotEnv) close() error { return nil }

func (oneShotEnv) job(tr *tracer, jobID, parent int, spec *sbgp.JobSpec) (jobResult, error) {
	var out jobResult
	var err error
	out.wall, err = tr.do(jobID, parent, "job.oneshot", func(id int) error {
		out.bytes, out.cells, err = oneShot(tr, jobID, id, spec, sbgp.JobEvalOptions{})
		return err
	})
	return out, err
}

// oneShot is the shared one-shot path: FromJobSpec → Simulate →
// EvaluateJob → Result.WriteJSON, the topology regenerated from the
// spec. It returns the result bytes and the job's cell count.
func oneShot(tr *tracer, jobID, parent int, spec *sbgp.JobSpec, opts sbgp.JobEvalOptions) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var sim *sbgp.Simulation
	if _, err := tr.do(jobID, parent, "sbgp.simulate", func(int) error {
		sc, err := sbgp.FromJobSpec(spec, sbgp.WithContext(ctx))
		if err != nil {
			return err
		}
		sim, err = sc.Simulate()
		return err
	}); err != nil {
		return nil, 0, err
	}
	return evaluateAndEncode(tr, jobID, parent, sim, opts)
}

// evaluateAndEncode is the back half of a one-shot job on a built
// simulation.
func evaluateAndEncode(tr *tracer, jobID, parent int, sim *sbgp.Simulation, opts sbgp.JobEvalOptions) ([]byte, int, error) {
	cells, _, err := sim.JobGeometry()
	if err != nil {
		return nil, 0, err
	}
	var res *sbgp.Result
	if _, err := tr.do(jobID, parent, "sbgp.evaluate_job", func(int) error {
		res, err = sim.EvaluateJob(opts)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if _, err := tr.do(jobID, parent, "sbgp.encode", func(int) error {
		return res.WriteJSON(&buf)
	}); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), cells, nil
}

// ---- durable: fresh fsync'd run, then resume from half ----

type durableEnv struct {
	dir string
	seq int
}

func (e *durableEnv) close() error { return nil }

// job is two timed operations on the checkpoint layer: op A evaluates
// the spec fresh with every shard fsync'd; op B resumes from a copy of
// A's checkpoint cut back to its first half and evaluates the rest. The
// copy is made between the two and is not timed. Both must produce the
// same bytes.
func (e *durableEnv) job(tr *tracer, jobID, parent int, spec *sbgp.JobSpec) (jobResult, error) {
	e.seq++
	fresh := filepath.Join(e.dir, fmt.Sprintf("fresh-%d.ckpt", e.seq))
	half := filepath.Join(e.dir, fmt.Sprintf("half-%d.ckpt", e.seq))
	defer os.Remove(fresh)
	defer os.Remove(half)

	var out jobResult
	a := spec.Clone()
	a.Checkpoint = fresh
	var err error
	wallA, err := tr.do(jobID, parent, "job.durable_fresh", func(id int) error {
		out.bytes, out.cells, err = oneShot(tr, jobID, id, a, sbgp.JobEvalOptions{})
		return err
	})
	if err != nil {
		return out, err
	}
	kept, total, err := copyCheckpointHead(fresh, half)
	if err != nil {
		return out, err
	}
	b := spec.Clone()
	b.Checkpoint, b.Resume = half, true
	var bytesB []byte
	wallB, err := tr.do(jobID, parent, "job.durable_resume", func(id int) error {
		bytesB, _, err = oneShot(tr, jobID, id, b, sbgp.JobEvalOptions{})
		return err
	})
	if err != nil {
		return out, err
	}
	if !bytes.Equal(out.bytes, bytesB) {
		return out, errors.New("resumed result differs from the fresh result")
	}
	out.wall = wallA + wallB
	// B re-evaluates only the shards the half copy lacks.
	out.cells += out.cells * (total - kept) / total
	return out, nil
}

// copyCheckpointHead copies a checkpoint's header line and the first
// half of its shard records (JSON lines) to dst, reporting how many
// records it kept of how many.
func copyCheckpointHead(src, dst string) (kept, total int, err error) {
	data, err := os.ReadFile(src)
	if err != nil {
		return 0, 0, err
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		return 0, 0, fmt.Errorf("checkpoint %s has no shard records", src)
	}
	total = len(lines) - 1
	kept = total / 2
	head := bytes.Join(lines[:1+kept], nil)
	return kept, total, os.WriteFile(dst, head, 0o644)
}

// ---- daemon: service.Server behind a loopback HTTP server ----

type daemonEnv struct {
	srv    *service.Server
	http   *httptest.Server
	client *http.Client
	extra  func() error // dist teardown, run before the server closes
}

// openDaemon starts a daemon over dir. distributor and mount are the
// dist wiring (nil for local evaluation): mount wraps the daemon's
// handler the way cmd/sbgpd -dist does.
func openDaemon(dir string, distributor service.Distributor, mount func(http.Handler) http.Handler) (*daemonEnv, error) {
	srv, err := service.OpenOptions(dir, service.Options{Distributor: distributor})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if mount != nil {
		h = mount(h)
	}
	ts := httptest.NewServer(h)
	return &daemonEnv{
		srv:    srv,
		http:   ts,
		client: &http.Client{Transport: &http.Transport{}, Timeout: jobTimeout},
	}, nil
}

func (e *daemonEnv) close() error {
	var err error
	if e.extra != nil {
		err = e.extra()
	}
	e.client.CloseIdleConnections()
	e.http.Close()
	return errors.Join(err, e.srv.Close())
}

// job is the three-call client: POST /jobs, GET wait, GET result.
func (e *daemonEnv) job(tr *tracer, jobID, parent int, spec *sbgp.JobSpec) (jobResult, error) {
	var out jobResult
	var err error
	out.wall, err = tr.do(jobID, parent, "job.daemon", func(id int) error {
		specJSON, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		body, err := json.Marshal(service.SubmitRequest{Spec: specJSON})
		if err != nil {
			return err
		}
		var submitted, final service.Job
		if _, err := tr.do(jobID, id, "service.submit", func(int) error {
			return e.call(http.MethodPost, "/jobs", body, http.StatusCreated, &submitted)
		}); err != nil {
			return err
		}
		if _, err := tr.do(jobID, id, "service.wait", func(int) error {
			return e.call(http.MethodGet, "/jobs/"+submitted.ID+"/wait", nil, http.StatusOK, &final)
		}); err != nil {
			return err
		}
		if final.State != service.StateDone {
			return fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
		}
		out.cells = final.Cells
		_, err = tr.do(jobID, id, "service.result", func(int) error {
			out.bytes, err = e.fetch(http.MethodGet, "/jobs/"+submitted.ID+"/result", nil, http.StatusOK)
			return err
		})
		return err
	})
	return out, err
}

func (e *daemonEnv) fetch(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, e.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// call is fetch plus a strict decode of the JSON answer.
func (e *daemonEnv) call(method, path string, body []byte, want int, v any) error {
	data, err := e.fetch(method, path, body, want)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// ---- dist: cmd/sbgpd -dist wiring in-process, plus 2 workers ----

// distWorkers is the worker count of the distributed path. Each worker
// evaluates single-threaded, so the path never runs more evaluation
// goroutines than the 2 cores the benchmark is sized for.
const distWorkers = 2

// distHooks lets the traced run observe the workers: wire counters
// under every worker's HTTP client and a replacement for the evaluator
// each worker opens per job.
type distHooks struct {
	wire *wireCounts
	open func(ctx context.Context, spec json.RawMessage) (dist.Evaluator, error)
}

type distEnv struct {
	*daemonEnv
	coord *dist.Coordinator
}

func openDist(dir string, hooks *distHooks) (*distEnv, error) {
	coord := dist.NewCoordinator(dist.Options{LeaseShards: 4, Standby: 5 * time.Millisecond})
	d, err := openDaemon(dir, coord, func(h http.Handler) http.Handler {
		mux := http.NewServeMux()
		mux.Handle("/dist/v1/", coord.Handler())
		mux.Handle("/", h)
		return mux
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var transports []*http.Transport
	for i := 0; i < distWorkers; i++ {
		w := &dist.Worker{
			Base:    d.http.URL,
			ID:      fmt.Sprintf("bench-w%d", i),
			Workers: 1,
			Poll:    5 * time.Millisecond,
		}
		base := &http.Transport{}
		transports = append(transports, base)
		w.Client = &http.Client{Transport: base}
		if hooks != nil {
			w.Client.Transport = countingTransport{next: base, c: hooks.wire}
			w.Open = hooks.open
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Run returns the context error on shutdown; anything else
			// surfaces as a job that never completes and times out.
			_ = w.Run(ctx)
		}()
	}
	d.extra = func() error {
		cancel()
		wg.Wait()
		for _, t := range transports {
			t.CloseIdleConnections()
		}
		return nil
	}
	return &distEnv{daemonEnv: d, coord: coord}, nil
}

// wireCounts totals the HTTP exchanges of the dist workers.
type wireCounts struct {
	calls, up, down atomic.Int64
}

// countingTransport counts calls and body bytes in both directions.
type countingTransport struct {
	next http.RoundTripper
	c    *wireCounts
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.c.calls.Add(1)
	t.c.up.Add(max(req.ContentLength, 0))
	resp, err := t.next.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.c.down}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
