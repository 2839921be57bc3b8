package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sbgp"
	"sbgp/internal/sweep"
)

// fault is one thing a worker's link can do to a request.
type fault int

const (
	faultNone      fault = iota
	faultDrop            // lost before it reaches the coordinator
	faultLoseReply       // the coordinator acts on it; the worker never hears back
	faultDuplicate       // the coordinator receives it twice
	faultDelay           // held back a few ms, reordering it against the other worker
	numFaults
)

var faultNames = [numFaults]string{"none", "drop", "lose-reply", "duplicate", "delay"}

// faultTransport is a seeded http.RoundTripper for a worker's Client that
// injects a fault into a share of the requests it carries — every
// endpoint the worker calls (job, lease, heartbeat, submit, ...), so
// lost grants, lost acks, re-sent batches and reordered heartbeats all
// occur. The seed fixes the sequence of faults; which request draws
// which one still depends on scheduling.
type faultTransport struct {
	base http.RoundTripper

	mu    sync.Mutex
	rng   *rand.Rand
	fired [numFaults]int
}

func newFaultTransport(seed int64) *faultTransport {
	return &faultTransport{base: http.DefaultTransport, rng: rand.New(rand.NewSource(seed))}
}

// draw picks the next request's fault (about half the requests get
// one) and the delay a faultDelay holds it back for.
func (f *faultTransport) draw() (fault, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := fault(f.rng.Intn(2 * int(numFaults-1)))
	if k >= numFaults {
		k = faultNone
	}
	f.fired[k]++
	return k, time.Duration(1+f.rng.Intn(4)) * time.Millisecond
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k, delay := f.draw()
	// Every send gets its own copy of the body, so a request can go
	// out twice; the caller's body is closed here, as RoundTrip must.
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	send := func() (*http.Response, error) {
		r := req.Clone(req.Context())
		if req.Body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		return f.base.RoundTrip(r)
	}
	// discard reads a reply to the end, so the coordinator has finished
	// acting on the request before the worker moves on.
	discard := func(resp *http.Response) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	switch k {
	case faultDrop:
		return nil, errors.New("injected fault: request dropped")
	case faultLoseReply:
		if resp, err := send(); err == nil {
			discard(resp)
		}
		return nil, errors.New("injected fault: reply lost")
	case faultDuplicate:
		if resp, err := send(); err == nil {
			discard(resp)
		}
	case faultDelay:
		if err := sleepCtx(req.Context(), delay); err != nil {
			return nil, err
		}
	}
	return send()
}

// goldenCase is one of the sweep package's golden grids.
type goldenCase struct {
	name, file string
	mkGrid     func() *sweep.Grid
}

func goldenCases(g *sbgp.Graph) []goldenCase {
	return []goldenCase{
		{"one-hop", "golden_onehop.json", func() *sweep.Grid { return goldenGrid(g, nil) }},
		{"none", "golden_none.json", func() *sweep.Grid { return goldenGrid(g, sbgp.NoAttack{}) }},
		{"pad-3", "golden_pad3.json", func() *sweep.Grid { return goldenGrid(g, sbgp.PathPadding{Hops: 3}) }},
		{"origin-spoof", "golden_originspoof.json", func() *sweep.Grid { return goldenGrid(g, sbgp.OriginSpoof{}) }},
		{"nested", "golden_nested.json", func() *sweep.Grid { return nestedGrid(g) }},
	}
}

// runFaultyWorkers serves one golden grid to two HTTP workers, each
// behind its own faultTransport, under a lease TTL short enough that
// lost grants and missed heartbeats expire mid-job. It checks the one
// invariant the faults must not break: both workers finish cleanly, the
// coordinator accepts every shard exactly once, and the result has the
// golden bytes. It returns the faults the two transports injected and
// the coordinator's counters.
func runFaultyWorkers(t *testing.T, tc goldenCase, g *sbgp.Graph, seed int64) (fired [numFaults]int, st Stats) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "sweep", "testdata", tc.file))
	if err != nil {
		t.Fatal(err)
	}
	const size = 7
	coord := NewCoordinator(Options{LeaseShards: 5, LeaseTTL: 40 * time.Millisecond, Standby: 2 * time.Millisecond})
	job, layout := gridJob(t, tc.mkGrid, g, size, "", false, nil)
	ctx, cancel := runContext(t)
	defer cancel()
	done := startRun(ctx, coord, job)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// Neither worker evaluates until both have joined: a faulty job
	// request must delay a worker's start, not let the other finish the
	// job before it arrives (OneJob would then wait for a job forever).
	joined := make(chan struct{})
	var joinMu sync.Mutex
	arrived := 0
	const workers = 2
	transports := make([]*faultTransport, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workers {
		transports[i] = newFaultTransport(seed + int64(i))
		w := &Worker{
			Base:   srv.URL,
			ID:     fmt.Sprintf("faulty-%d", i),
			OneJob: true,
			Poll:   2 * time.Millisecond,
			Client: &http.Client{Transport: transports[i]},
			Open: func(ctx context.Context, _ json.RawMessage) (Evaluator, error) {
				joinMu.Lock()
				if arrived++; arrived == workers {
					close(joined)
				}
				joinMu.Unlock()
				select {
				case <-joined:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return newPlanEvaluator(ctx, tc.mkGrid(), g, size)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: Run = %v, want nil", i, err)
		}
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := resultBytes(t, r.res); !bytes.Equal(got, want) {
		t.Errorf("result under injected faults diverges from golden %s", tc.file)
	}
	st = coord.Stats()
	if st.ShardsAccepted != layout.Shards {
		t.Errorf("stats %+v: accepted %d shards, want every one of %d exactly once", st, st.ShardsAccepted, layout.Shards)
	}
	for _, ft := range transports {
		ft.mu.Lock()
		for k, n := range ft.fired {
			fired[k] += n
		}
		ft.mu.Unlock()
	}
	return fired, st
}

// TestFaultyTransportGoldenByteIdentity: two workers whose every request
// may be dropped, lose its reply, arrive twice or arrive late finish
// each golden grid with golden bytes — "byte-identical or refuse
// loudly", with nothing refused.
func TestFaultyTransportGoldenByteIdentity(t *testing.T) {
	g := goldenGraph()
	var fired [numFaults]int
	var expired, duplicates int
	for i, tc := range goldenCases(g) {
		t.Run(tc.name, func(t *testing.T) {
			got, st := runFaultyWorkers(t, tc, g, int64(100*(i+1)))
			for k, n := range got {
				fired[k] += n
			}
			expired += st.LeasesExpired
			duplicates += st.Duplicates
		})
	}
	// The faults must reach the protocol, not only the wire: lost grants
	// and missed heartbeats expire leases, re-sent batches arrive as
	// duplicates.
	for k, n := range fired {
		if n == 0 {
			t.Errorf("no request drew fault %q; the test exercised less than it claims", faultNames[k])
		}
	}
	if expired == 0 || duplicates == 0 {
		t.Errorf("over all grids: %d leases expired, %d duplicates; want both > 0", expired, duplicates)
	}
}
