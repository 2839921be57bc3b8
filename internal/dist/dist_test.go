package dist

// The distributed evaluator's contract, end to end: N workers over the
// real HTTP protocol — with injected kills, abandoned leases, duplicate
// submissions, and severed links — must land on grid bytes identical to
// the single-box sharded evaluator, which is itself pinned to the flat
// evaluator's golden files. Everything else (reconciliation transfer
// counts, foreign-fingerprint refusal, checkpoint resume) defends the
// machinery that makes that identity hold under failure.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sbgp"
	"sbgp/internal/asgraph"
	"sbgp/internal/runner"
	"sbgp/internal/sweep"
	"sbgp/internal/topogen"
)

// goldenGraph caches the golden topology (the one the sweep package's
// golden files were captured on).
var goldenGraph = sync.OnceValue(func() *sbgp.Graph {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	return g
})

// smallGraph caches the cheaper topology the protocol tests use.
var smallGraph = sync.OnceValue(func() *sbgp.Graph {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	return g
})

// goldenGrid mirrors the sweep package's golden grid exactly — same
// axes, same pairs — so results compare against the same golden files.
func goldenGrid(g *sbgp.Graph, attack sbgp.Attack) *sweep.Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 6, 8)
	evens := asgraph.NewSet(g.N())
	for v := 0; v < g.N(); v += 2 {
		evens.Add(sbgp.AS(v))
	}
	return &sweep.Grid{
		Deployments: []sweep.Deployment{
			{Name: "baseline"},
			{Name: "nonstubs", Dep: &sbgp.Deployment{Full: asgraph.SetOf(g.N(), asgraph.NonStubs(g)...)}},
			{Name: "evens", Dep: &sbgp.Deployment{Full: evens}},
		},
		Attackers:    M,
		Destinations: D,
		PerDest:      true,
		Attack:       attack,
		Workers:      4,
	}
}

// nestedGrid mirrors the sweep package's rollout-shaped golden grid.
func nestedGrid(g *sbgp.Graph) *sweep.Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 6, 8)
	nonStubs := asgraph.NonStubs(g)
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for _, k := range []int{3, 9, 18, 30} {
		anchors := asgraph.SetOf(g.N(), nonStubs[:k]...)
		stubs := asgraph.StubCustomersOf(g, anchors)
		full := anchors.Clone()
		for _, v := range stubs {
			full.Add(v)
		}
		deployments = append(deployments,
			sweep.Deployment{Name: fmt.Sprintf("step%d", k), Dep: &sbgp.Deployment{Full: full}},
			sweep.Deployment{Name: fmt.Sprintf("step%d+simplex", k), Dep: &sbgp.Deployment{
				Full:    anchors.Clone(),
				Simplex: asgraph.SetOf(g.N(), stubs...),
			}},
		)
	}
	return &sweep.Grid{
		Deployments:  deployments,
		Attackers:    M,
		Destinations: D,
		PerDest:      true,
		Workers:      4,
	}
}

// chainedGrid mirrors the sweep scheduler tests' small rollout grid.
func chainedGrid(g *sbgp.Graph) *sweep.Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	nonStubs := asgraph.NonStubs(g)
	deployments := []sweep.Deployment{{Name: "baseline"}}
	for _, k := range []int{4, 10, 20} {
		deployments = append(deployments, sweep.Deployment{
			Name: fmt.Sprintf("step%d", k),
			Dep:  &sbgp.Deployment{Full: asgraph.SetOf(g.N(), nonStubs[:k]...)},
		})
	}
	return &sweep.Grid{
		Deployments:  deployments,
		Attackers:    M,
		Destinations: D,
		Workers:      4,
	}
}

// gridJob assembles a coordinator Job for a caller-held grid.
func gridJob(t *testing.T, mkGrid func() *sweep.Grid, g *sbgp.Graph, size int, checkpoint string, resume bool, sink func(*sbgp.ShardPartial) error) (Job, *sbgp.ShardLayout) {
	t.Helper()
	ev := planEvaluator(t, nil, mkGrid(), g, size)
	return Job{
		Plan:       ev.Plan,
		Layout:     ev.Layout,
		Checkpoint: checkpoint,
		Resume:     resume,
		Sink:       sink,
	}, ev.Layout
}

// newPlanEvaluator prepares gr on g and wraps the plan as an evaluator
// sharding it at size — its own plan, no state shared with any other
// party, as across machines.
func newPlanEvaluator(ctx context.Context, gr *sweep.Grid, g *sbgp.Graph, size int) (*PlanEvaluator, error) {
	pl, err := gr.Prepare(g)
	if err != nil {
		return nil, err
	}
	return &PlanEvaluator{Ctx: ctx, Plan: pl, Layout: pl.Layout(size)}, nil
}

// planEvaluator is newPlanEvaluator on the test goroutine.
func planEvaluator(t *testing.T, ctx context.Context, gr *sweep.Grid, g *sbgp.Graph, size int) *PlanEvaluator {
	t.Helper()
	ev, err := newPlanEvaluator(ctx, gr, g, size)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// chainedDigest is the SHA-256 of chainedGrid's result bytes on
// smallGraph, pinned from the flat one-shot evaluator.
const chainedDigest = "3c66dcdae114703dc355ffa0bfd18f4a8e56aaf57d1e33966ff82afd5e62a96f"

// checkChained fails t unless res serializes to chainedDigest.
func checkChained(t *testing.T, res *sbgp.Result, what string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256(resultBytes(t, res))); got != chainedDigest {
		t.Errorf("%s: result sha256 %s, want %s", what, got, chainedDigest)
	}
}

type runResult struct {
	res *sbgp.Result
	err error
}

// startRun launches coordinator.Run in the background.
func startRun(ctx context.Context, c *Coordinator, job Job) <-chan runResult {
	ch := make(chan runResult, 1)
	go func() {
		res, err := c.Run(ctx, job)
		ch <- runResult{res, err}
	}()
	return ch
}

// waitActive blocks until the coordinator has installed a job.
func waitActive(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !c.Stats().Active {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never installed the job")
		}
		time.Sleep(time.Millisecond)
	}
}

// runContext is the context a test's coordinator run and workers run
// under. It ends after 30 s, or a twentieth of the time the test binary
// has left if that is less, so a run that never finishes (a lease that
// never expires strands its range) fails its own test by name and leaves
// the package time to run and report the rest.
func runContext(t *testing.T) (context.Context, context.CancelFunc) {
	d := 30 * time.Second
	if end, ok := t.Deadline(); ok {
		d = min(d, time.Until(end)/20)
	}
	return context.WithTimeout(context.Background(), d)
}

// gridWorker returns an HTTP worker evaluating with its own fresh grid
// value — no shared engine state with any other worker, as across
// machines.
func gridWorker(id, base string, mkGrid func() *sweep.Grid, g *sbgp.Graph, size int) *Worker {
	return &Worker{
		Base:   base,
		ID:     id,
		OneJob: true,
		Poll:   10 * time.Millisecond,
		Open: func(ctx context.Context, _ json.RawMessage) (Evaluator, error) {
			return newPlanEvaluator(ctx, mkGrid(), g, size)
		},
	}
}

func resultBytes(t *testing.T, res *sbgp.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistributedGoldenByteIdentity is the acceptance test: for every
// golden grid (all four attack strategies plus the nested rollout), a
// distributed run over real HTTP with a worker that dies mid-lease —
// after submitting half its shards, one of them twice — must produce
// result bytes identical to the sweep package's golden files, which pin
// the flat single-box evaluator.
func TestDistributedGoldenByteIdentity(t *testing.T) {
	g := goldenGraph()
	cases := []struct {
		name   string
		file   string
		mkGrid func() *sweep.Grid
	}{
		{"one-hop", "golden_onehop.json", func() *sweep.Grid { return goldenGrid(g, nil) }},
		{"none", "golden_none.json", func() *sweep.Grid { return goldenGrid(g, sbgp.NoAttack{}) }},
		{"pad-3", "golden_pad3.json", func() *sweep.Grid { return goldenGrid(g, sbgp.PathPadding{Hops: 3}) }},
		{"origin-spoof", "golden_originspoof.json", func() *sweep.Grid { return goldenGrid(g, sbgp.OriginSpoof{}) }},
		{"nested", "golden_nested.json", func() *sweep.Grid { return nestedGrid(g) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "sweep", "testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			const size = 7
			coord := NewCoordinator(Options{LeaseShards: 5, LeaseTTL: 60 * time.Millisecond, Standby: 5 * time.Millisecond})
			sunk := 0 // the sink runs under the job's ingest mutex
			job, layout := gridJob(t, tc.mkGrid, g, size, "", false, func(*sbgp.ShardPartial) error { sunk++; return nil })
			ctx, cancel := runContext(t)
			defer cancel()
			done := startRun(ctx, coord, job)
			waitActive(t, coord)

			// The doomed worker, protocol-driven: takes a lease,
			// evaluates it, submits half the shards (one of them twice),
			// and abandons the rest without ever heartbeating — the
			// lease expires and its unfinished shards are re-leased.
			grant, err := coord.Lease("doomed", layout.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			if grant.LeaseID == "" || grant.Range.Len() == 0 {
				t.Fatalf("doomed worker got no lease: %+v", grant)
			}
			ev := planEvaluator(t, nil, tc.mkGrid(), g, size)
			var parts []*sbgp.ShardPartial
			err = ev.EvaluateShards(grant.Range, func(p *sbgp.ShardPartial) error {
				parts = append(parts, p)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			half := parts[:(len(parts)+1)/2]
			acc, dup, err := coord.Submit("doomed", layout.Fingerprint, half)
			if err != nil || acc != len(half) || dup != 0 {
				t.Fatalf("doomed submit = (%d, %d, %v), want (%d, 0, nil)", acc, dup, err, len(half))
			}
			acc, dup, err = coord.Submit("doomed", layout.Fingerprint, half[:1])
			if err != nil || acc != 0 || dup != 1 {
				t.Fatalf("duplicate submit = (%d, %d, %v), want (0, 1, nil)", acc, dup, err)
			}

			// Two honest workers over real HTTP finish the job (the
			// doomed lease's remainder included, once it expires).
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()
			var wg sync.WaitGroup
			workerErrs := make([]error, 2)
			for i := range workerErrs {
				w := gridWorker(fmt.Sprintf("w%d", i), srv.URL, tc.mkGrid, g, size)
				wg.Add(1)
				go func() {
					defer wg.Done()
					workerErrs[i] = w.Run(ctx)
				}()
			}
			wg.Wait()
			for i, werr := range workerErrs {
				if werr != nil {
					t.Errorf("worker %d: %v", i, werr)
				}
			}
			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			if got := resultBytes(t, r.res); !bytes.Equal(got, want) {
				t.Errorf("distributed result diverges from golden %s", tc.file)
			}
			st := coord.Stats()
			if st.LeasesExpired < 1 {
				t.Errorf("stats %+v: expected at least one expired lease (the doomed worker's)", st)
			}
			if st.Duplicates < 1 {
				t.Errorf("stats %+v: expected at least one counted duplicate submission", st)
			}
			if st.ShardsAccepted != layout.Shards || sunk != layout.Shards {
				t.Errorf("stats %+v: accepted %d shards and sank %d, want every one of %d exactly once",
					st, st.ShardsAccepted, sunk, layout.Shards)
			}
		})
	}
}

// sabotageTransport severs the worker's first submit — after handing
// the coordinator, as a rival worker would have, the part of that batch
// steal picks. It records the shard indices of the severed batch and of
// every submit it lets through, and the have-set of the first lease
// grant after the sever. The worker must then reconcile: drop what the
// coordinator now has, ship only the rest, and re-send nothing.
type sabotageTransport struct {
	base        http.RoundTripper
	coord       *Coordinator
	fingerprint string
	steal       func(batch []int) []int

	mu       sync.Mutex
	severed  []int             // the severed batch, sorted
	stolen   []int             // the part of it the rival delivered
	sawGrant bool              // have is recorded
	have     []sbgp.ShardRange // the first grant's have-set after the sever
	shipped  [][]int           // every later submit, sorted
}

func (s *sabotageTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch {
	case strings.HasSuffix(req.URL.Path, "/dist/v1/submit"):
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		var sub submitRequest
		if err := json.Unmarshal(body, &sub); err != nil {
			return nil, err
		}
		shards := make([]int, len(sub.Partials))
		for i, p := range sub.Partials {
			shards[i] = p.Shard
		}
		slices.Sort(shards)
		s.mu.Lock()
		first := s.severed == nil
		if first {
			s.severed = shards
		} else {
			s.shipped = append(s.shipped, shards)
		}
		s.mu.Unlock()
		if first {
			stolen := s.steal(shards)
			var rival []*sbgp.ShardPartial
			for _, p := range sub.Partials {
				if slices.Contains(stolen, p.Shard) {
					rival = append(rival, p)
				}
			}
			if _, _, err := s.coord.Submit("rival", s.fingerprint, rival); err != nil {
				return nil, err
			}
			s.mu.Lock()
			s.stolen = stolen
			s.mu.Unlock()
			return nil, errors.New("injected link failure")
		}
		r := req.Clone(req.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
		return s.base.RoundTrip(r)
	case strings.HasSuffix(req.URL.Path, "/dist/v1/lease"):
		resp, err := s.base.RoundTrip(req)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil || s.severed == nil || s.sawGrant || resp.StatusCode != http.StatusOK {
			return resp, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var grant LeaseGrant
		if err := json.Unmarshal(data, &grant); err != nil {
			return nil, err
		}
		s.sawGrant, s.have = true, grant.Have
		resp.Body = io.NopCloser(bytes.NewReader(data))
		return resp, nil
	}
	return s.base.RoundTrip(req)
}

// rangesOf is the have-set encoding of a sorted shard list: one range
// per run of consecutive shards.
func rangesOf(shards []int) []sbgp.ShardRange {
	var out []sbgp.ShardRange
	for _, s := range shards {
		if n := len(out); n > 0 && out[n-1].End == s {
			out[n-1].End++
		} else {
			out = append(out, sbgp.ShardRange{Start: s, End: s + 1})
		}
	}
	return out
}

// TestReconciliationTransfersOnlyMissing: a worker whose first submit is
// severed mid-flight, while a rival delivers some subset of that batch,
// must on reconnect submit exactly the held shards the coordinator's
// have-set does not cover — counted skips for the rest, zero duplicate
// submissions overall, golden bytes. The rival's subsets run from none
// to all of the batch, with one and several gaps (so the have-set
// arrives as several ranges) and seeded random ones.
func TestReconciliationTransfersOnlyMissing(t *testing.T) {
	g := goldenGraph()
	want, err := os.ReadFile(filepath.Join("..", "sweep", "testdata", "golden_onehop.json"))
	if err != nil {
		t.Fatal(err)
	}
	mkGrid := func() *sweep.Grid { return goldenGrid(g, nil) }
	// 62 single-shard units at size 7: the first lease, and so the
	// severed batch, is shards [0, 16) and the job outlives any subset
	// of it.
	const size, leaseShards = 7, 16
	subset := func(keep func(i, n int) bool) func([]int) []int {
		return func(batch []int) []int {
			var out []int
			for i, s := range batch {
				if keep(i, len(batch)) {
					out = append(out, s)
				}
			}
			return out
		}
	}
	random := func(seed int64) func([]int) []int {
		rng := rand.New(rand.NewSource(seed))
		return subset(func(int, int) bool { return rng.Intn(2) == 0 })
	}
	for _, tc := range []struct {
		name  string
		steal func([]int) []int
	}{
		{"empty", subset(func(int, int) bool { return false })},
		{"everything", subset(func(int, int) bool { return true })},
		{"one-gap", subset(func(i, n int) bool { return i != n/2 })},
		{"several-gaps", subset(func(i, _ int) bool { return i%3 != 1 })},
		{"random-1", random(1)},
		{"random-2", random(2)},
		{"random-3", random(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := NewCoordinator(Options{LeaseShards: leaseShards, LeaseTTL: 10 * time.Second, Standby: 5 * time.Millisecond})
			job, layout := gridJob(t, mkGrid, g, size, "", false, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := startRun(ctx, coord, job)
			waitActive(t, coord)
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()

			sab := &sabotageTransport{base: http.DefaultTransport, coord: coord, fingerprint: layout.Fingerprint, steal: tc.steal}
			w := gridWorker("flaky", srv.URL, mkGrid, g, size)
			w.Client = &http.Client{Transport: sab}
			if err := w.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			if !bytes.Equal(resultBytes(t, r.res), want) {
				t.Error("reconciled distributed result diverges from golden_onehop.json")
			}

			sab.mu.Lock()
			defer sab.mu.Unlock()
			if sab.severed == nil || !sab.sawGrant {
				t.Fatal("sabotage never fired; the test exercised nothing")
			}
			if len(sab.severed) != leaseShards {
				t.Fatalf("severed batch %v, want the first lease's %d shards", sab.severed, leaseShards)
			}
			if got, want := sab.have, rangesOf(sab.stolen); !slices.Equal(got, want) {
				t.Errorf("first grant after the sever advertised %v, want the rival's %v", got, want)
			}
			// held \ have goes out in the first submit after the sever.
			var missing []int
			for _, s := range sab.severed {
				if !slices.Contains(sab.stolen, s) {
					missing = append(missing, s)
				}
			}
			if len(missing) > 0 && (len(sab.shipped) == 0 || !slices.Equal(sab.shipped[0], missing)) {
				t.Errorf("first submit after the sever = %v, want exactly held \\ have = %v", sab.shipped, missing)
			}
			// Every later submit together: each shard the rival did not
			// deliver, once.
			var all []int
			for _, b := range sab.shipped {
				all = append(all, b...)
			}
			slices.Sort(all)
			var rest []int
			for s := range layout.Shards {
				if !slices.Contains(sab.stolen, s) {
					rest = append(rest, s)
				}
			}
			if !slices.Equal(all, rest) {
				t.Errorf("submitted shards %v, want each of %v once", all, rest)
			}
			ws := w.Stats()
			if ws.ShardsEvaluated != layout.Shards {
				t.Errorf("worker evaluated %d shards, want all %d", ws.ShardsEvaluated, layout.Shards)
			}
			if ws.ShardsSkipped != len(sab.stolen) {
				t.Errorf("worker skipped %d shards, want exactly the %d the rival delivered", ws.ShardsSkipped, len(sab.stolen))
			}
			if ws.ShardsShipped != layout.Shards-len(sab.stolen) {
				t.Errorf("worker shipped %d shards, want exactly the missing %d", ws.ShardsShipped, layout.Shards-len(sab.stolen))
			}
			if st := coord.Stats(); st.Duplicates != 0 {
				t.Errorf("coordinator counted %d duplicate submissions; reconnect must transfer only missing shards", st.Duplicates)
			}
		})
	}
}

// TestWorkerForeignFingerprint: a worker whose local plan disagrees
// with the coordinator's — here a different-sized topology — must
// refuse the job loudly instead of evaluating meaningless shard
// indices; and the protocol itself refuses mismatched fingerprints.
func TestWorkerForeignFingerprint(t *testing.T) {
	g := smallGraph()
	other, _ := topogen.MustGenerate(topogen.Params{N: 210, Seed: 29})
	const size = 5
	coord := NewCoordinator(Options{Standby: 5 * time.Millisecond})
	job, layout := gridJob(t, func() *sweep.Grid { return chainedGrid(g) }, g, size, "", false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startRun(ctx, coord, job)
	waitActive(t, coord)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	w := gridWorker("foreign", srv.URL, func() *sweep.Grid { return chainedGrid(other) }, other, size)
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign worker Run = %v, want a fingerprint refusal", err)
	}
	if _, err := coord.Lease("x", "0000000000000000"); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("Lease with foreign fingerprint = %v, want ErrFingerprintMismatch", err)
	}
	if _, _, err := coord.Submit("x", "0000000000000000", nil); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("Submit with foreign fingerprint = %v, want ErrFingerprintMismatch", err)
	}
	_ = layout
	cancel()
	<-done
}

// TestCoordinatorCheckpointResume: a coordinator abandoned mid-job
// keeps its accepted shards in the fsync'd checkpoint; a fresh
// coordinator resuming that checkpoint replays them to the sink,
// accepts only the missing ones from workers, and lands on the flat
// bytes.
func TestCoordinatorCheckpointResume(t *testing.T) {
	g := smallGraph()
	mkGrid := func() *sweep.Grid { return chainedGrid(g) }
	const size = 5
	path := filepath.Join(t.TempDir(), "dist.ckpt")

	coord1 := NewCoordinator(Options{LeaseShards: 7, Standby: 5 * time.Millisecond})
	job1, layout := gridJob(t, mkGrid, g, size, path, false, nil)
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := startRun(ctx1, coord1, job1)
	waitActive(t, coord1)
	grant, err := coord1.Lease("early", layout.Fingerprint)
	if err != nil || grant.LeaseID == "" {
		t.Fatalf("lease = %+v, %v", grant, err)
	}
	ev := planEvaluator(t, nil, mkGrid(), g, size)
	var parts []*sbgp.ShardPartial
	if err := ev.EvaluateShards(grant.Range, func(p *sbgp.ShardPartial) error { parts = append(parts, p); return nil }); err != nil {
		t.Fatal(err)
	}
	if acc, _, err := coord1.Submit("early", layout.Fingerprint, parts); err != nil || acc != len(parts) {
		t.Fatalf("submit = (%d, %v), want %d accepted", acc, err, len(parts))
	}
	cancel1()
	if r := <-done1; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("abandoned run = %v, want context.Canceled", r.err)
	}

	// Fresh coordinator, resumed checkpoint. The sink must see every
	// shard exactly once: the checkpointed ones replayed up front, the
	// rest as workers deliver them.
	var mu sync.Mutex
	seen := map[int]int{}
	coord2 := NewCoordinator(Options{LeaseShards: 7, Standby: 5 * time.Millisecond})
	job2, _ := gridJob(t, mkGrid, g, size, path, true, func(p *sbgp.ShardPartial) error {
		mu.Lock()
		seen[p.Shard]++
		mu.Unlock()
		return nil
	})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done2 := startRun(ctx2, coord2, job2)
	waitActive(t, coord2)
	srv := httptest.NewServer(coord2.Handler())
	defer srv.Close()
	if err := gridWorker("resumer", srv.URL, mkGrid, g, size).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := <-done2
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkChained(t, r.res, "resumed distributed result")
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != layout.Shards {
		t.Errorf("sink saw %d distinct shards, want %d", len(seen), layout.Shards)
	}
	for s, n := range seen {
		if n != 1 {
			t.Errorf("sink saw shard %d %d times", s, n)
		}
	}
	if st := coord2.Stats(); st.ShardsAccepted != layout.Shards-len(parts) {
		t.Errorf("resumed run accepted %d shards from workers, want only the %d missing",
			st.ShardsAccepted, layout.Shards-len(parts))
	}
}

// TestConcurrentWorkersWithKill: three real HTTP workers race on one
// job; one is killed mid-lease (its evaluator blocks on the first shard
// until its context dies, so the kill deterministically strands a live
// lease). The lease expires, the survivors re-evaluate it, and the
// result is byte-identical to the flat evaluation.
func TestConcurrentWorkersWithKill(t *testing.T) {
	g := smallGraph()
	mkGrid := func() *sweep.Grid { return chainedGrid(g) }
	const size = 4
	coord := NewCoordinator(Options{LeaseShards: 6, LeaseTTL: 60 * time.Millisecond, Standby: 5 * time.Millisecond})
	job, _ := gridJob(t, mkGrid, g, size, "", false, nil)
	ctx, cancel := runContext(t)
	defer cancel()
	done := startRun(ctx, coord, job)
	waitActive(t, coord)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	killReady := make(chan struct{})
	var once sync.Once
	doomed := &Worker{
		Base:   srv.URL,
		ID:     "doomed",
		OneJob: true,
		Poll:   10 * time.Millisecond,
		Open: func(_ context.Context, _ json.RawMessage) (Evaluator, error) {
			inner, err := newPlanEvaluator(killCtx, mkGrid(), g, size)
			return &stallEvaluator{inner: inner, stall: func() {
				once.Do(func() { close(killReady) })
				<-killCtx.Done()
			}}, err
		},
	}
	var wg sync.WaitGroup
	var doomedErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		doomedErr = doomed.Run(killCtx)
	}()
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		w := gridWorker(fmt.Sprintf("w%d", i), srv.URL, mkGrid, g, size)
		// The survivors evaluate only once the doomed worker is stalled
		// in a lease: on a loaded machine one of them could otherwise
		// finish the whole grid before the doomed worker leases anything,
		// and killReady would never close.
		open := w.Open
		w.Open = func(ctx context.Context, spec json.RawMessage) (Evaluator, error) {
			select {
			case <-killReady:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return open(ctx, spec)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = w.Run(ctx)
		}()
	}
	<-killReady
	kill()
	wg.Wait()
	if doomedErr == nil {
		t.Error("killed worker returned nil, want its context error")
	}
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkChained(t, r.res, "distributed result with a killed worker")
	if st := coord.Stats(); st.LeasesExpired < 1 {
		t.Errorf("stats %+v: the killed worker's lease never expired", st)
	}
}

// stallEvaluator wraps an Evaluator and blocks in the sink on every
// shard via stall() — the deterministic way to strand a worker
// mid-lease.
type stallEvaluator struct {
	inner Evaluator
	stall func()
}

func (s *stallEvaluator) ShardPlan() (*sbgp.ShardLayout, error) { return s.inner.ShardPlan() }

func (s *stallEvaluator) EvaluateShards(r sbgp.ShardRange, sink func(*sbgp.ShardPartial) error) error {
	return s.inner.EvaluateShards(r, func(p *sbgp.ShardPartial) error {
		s.stall()
		return sink(p)
	})
}

// TestDistributedJobSpecFacade: the full facade path the daemon takes
// (service.Distributor) — RunSim on a simulation and its JobSpec, workers
// that rebuild the simulation from the served canonical spec (no shared
// state at all) — produces bytes identical to the same scenario's local
// EvaluateJob.
func TestDistributedJobSpecFacade(t *testing.T) {
	opts := func() []sbgp.Option {
		return []sbgp.Option{
			sbgp.WithGeneratedTopology(200, 23),
			sbgp.WithPairSampling(5, 6),
			sbgp.WithShardSize(5),
			sbgp.WithWorkers(4),
		}
	}
	ref, err := sbgp.NewScenario(opts()...).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.EvaluateJob(sbgp.JobEvalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(Options{LeaseShards: 6, Standby: 5 * time.Millisecond})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	// A worker that only asks for the job after the other one finished it
	// would wait forever; cancelling once RunSim returns lets it go.
	wctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		w := &Worker{
			Base:    srv.URL,
			ID:      fmt.Sprintf("spec-w%d", i),
			OneJob:  true,
			Poll:    10 * time.Millisecond,
			Workers: 4,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = w.Run(wctx)
		}()
	}

	sim, err := sbgp.NewScenario(opts()...).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sim.JobSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.RunSim(sim, spec, sbgp.JobEvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stop()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if !bytes.Equal(resultBytes(t, got), resultBytes(t, want)) {
		t.Error("facade distributed result diverges from local EvaluateJob")
	}
}

// TestWorkerPoolOutlivesJobs: a spec-driven worker keeps one engine pool
// for its whole life. Four jobs back to back — the second on a smaller
// graph under LP2, the third back on the first's, the fourth on the
// second's after an aborted run — are each byte-identical to the local
// EvaluateJob, and with one evaluation goroutine the worker's pool holds
// one engine after every one of them: it is the pool the jobs drew on,
// and it follows them instead of growing with them. The aborted run is
// the same worker's Run cancelled mid-lease while Throttle holds the
// lease, so its strip aborts on the pool; the next Run finishes the job
// on it once the stranded lease expires.
func TestWorkerPoolOutlivesJobs(t *testing.T) {
	coord := NewCoordinator(Options{LeaseShards: 6, LeaseTTL: 100 * time.Millisecond, Standby: 5 * time.Millisecond})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	w := &Worker{Base: srv.URL, ID: "pool-w", OneJob: true, Poll: 5 * time.Millisecond, Workers: 1}

	for i, job := range []struct {
		n     int
		lp    sbgp.LocalPref
		abort bool
	}{{200, sbgp.StandardLP, false}, {120, sbgp.LP2, false}, {200, sbgp.StandardLP, false}, {120, sbgp.LP2, true}} {
		runCtx, stop := runContext(t)
		defer stop()
		sim, err := sbgp.NewScenario(
			sbgp.WithContext(runCtx),
			sbgp.WithGeneratedTopology(job.n, 23),
			sbgp.WithLocalPref(job.lp),
			sbgp.WithPairSampling(5, 6),
			sbgp.WithShardSize(16),
		).Simulate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.EvaluateJob(sbgp.JobEvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := sim.JobSpec()
		if err != nil {
			t.Fatal(err)
		}
		ran := make(chan runResult, 1)
		go func() {
			res, err := coord.RunSim(sim, spec, sbgp.JobEvalOptions{})
			ran <- runResult{res, err}
		}()
		if job.abort {
			ctx, cancel := context.WithCancel(context.Background())
			aborted := make(chan error, 1)
			before := w.Stats().ShardsEvaluated
			w.Throttle = time.Hour
			go func() { aborted <- w.Run(ctx) }()
			deadline := time.Now().Add(10 * time.Second)
			for w.Stats().ShardsEvaluated == before {
				if time.Now().After(deadline) {
					t.Fatalf("job %d: the worker evaluated no shard", i)
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
			if err := <-aborted; !errors.Is(err, context.Canceled) {
				t.Fatalf("job %d: the cancelled Run returned %v, want context.Canceled", i, err)
			}
			w.Throttle = 0
		}
		if err := w.Run(runCtx); err != nil {
			t.Fatalf("job %d: worker: %v", i, err)
		}
		r := <-ran
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !bytes.Equal(resultBytes(t, r.res), resultBytes(t, want)) {
			t.Errorf("job %d (n=%d, %v): distributed result diverges from local EvaluateJob", i, job.n, job.lp)
		}
		if n := w.pool.Size(); n != 1 {
			t.Fatalf("job %d: the worker's pool holds %d engines, want 1", i, n)
		}
		if job.abort && coord.Stats().LeasesExpired == 0 {
			t.Errorf("job %d: the aborted run's lease never expired", i)
		}
	}
}

// TestLateSubmitAfterLeaseExpiry is the accounting regression test for
// the late-submit path: a batch arriving after its lease expired — with
// or without the range having been re-leased — must ingest
// idempotently, expire (not silently retire) the dead lease, never
// resurrect it, and leave ShardsAccepted/Duplicates exactly consistent
// with the answers the workers received and with the checkpoint bytes.
func TestLateSubmitAfterLeaseExpiry(t *testing.T) {
	g := smallGraph()
	mkGrid := func() *sweep.Grid { return chainedGrid(g) }
	const size = 5
	path := filepath.Join(t.TempDir(), "late.ckpt")

	coord := NewCoordinator(Options{LeaseShards: 7, LeaseTTL: time.Minute, Standby: 5 * time.Millisecond})
	var clockMu sync.Mutex
	clock := time.Unix(1_700_000_000, 0)
	var onRead chan struct{} // non-nil: closed by the next clock read
	coord.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		if onRead != nil {
			close(onRead)
			onRead = nil
		}
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}

	// The sink parks one batch on demand (Phase 3): its first partial
	// closes parked and waits for the gate to close.
	var parkMu sync.Mutex
	var gate chan struct{}
	parked := make(chan struct{})
	sink := func(*sbgp.ShardPartial) error {
		parkMu.Lock()
		wait := gate
		gate = nil
		parkMu.Unlock()
		if wait != nil {
			close(parked)
			<-wait
		}
		return nil
	}

	job, layout := gridJob(t, mkGrid, g, size, path, false, sink)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startRun(ctx, coord, job)
	waitActive(t, coord)

	evaluate := func(r sbgp.ShardRange) []*sbgp.ShardPartial {
		t.Helper()
		ev := planEvaluator(t, nil, mkGrid(), g, size)
		var parts []*sbgp.ShardPartial
		if err := ev.EvaluateShards(r, func(p *sbgp.ShardPartial) error { parts = append(parts, p); return nil }); err != nil {
			t.Fatal(err)
		}
		return parts
	}

	// Phase 1 — expired lease, range NOT re-leased: worker a evaluates
	// its range, its lease dies unnoticed (no intervening protocol
	// call), then the batch lands. The shards are new, so they must
	// ingest; the dead lease must be counted expired, not retired as if
	// it had been live.
	grantA, err := coord.Lease("a", layout.Fingerprint)
	if err != nil || grantA.LeaseID == "" {
		t.Fatalf("lease a = %+v, %v", grantA, err)
	}
	partsA := evaluate(grantA.Range)
	advance(2 * time.Minute)
	acc, dup, err := coord.Submit("a", layout.Fingerprint, partsA)
	if err != nil || acc != len(partsA) || dup != 0 {
		t.Fatalf("late submit on expired lease = (%d, %d, %v), want (%d, 0, nil)", acc, dup, err, len(partsA))
	}
	st := coord.Stats()
	if st.LeasesExpired != 1 {
		t.Errorf("LeasesExpired = %d after late submit, want 1 (dead lease retired silently)", st.LeasesExpired)
	}
	if st.ActiveLeases != 0 {
		t.Errorf("ActiveLeases = %d after late submit, want 0", st.ActiveLeases)
	}
	if err := coord.Heartbeat(grantA.LeaseID, layout.Fingerprint); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("heartbeat on dead lease = %v, want ErrUnknownLease", err)
	}

	// Phase 2 — expired lease, range re-leased and filled by someone
	// else: worker b's lease expires, c re-leases the identical range
	// and submits first, then b's stale batch arrives. Everything in it
	// is a duplicate; the checkpoint must not change by a byte.
	grantB, err := coord.Lease("b", layout.Fingerprint)
	if err != nil || grantB.LeaseID == "" {
		t.Fatalf("lease b = %+v, %v", grantB, err)
	}
	partsB := evaluate(grantB.Range)
	advance(2 * time.Minute)
	grantC, err := coord.Lease("c", layout.Fingerprint)
	if err != nil || grantC.LeaseID == "" {
		t.Fatalf("lease c = %+v, %v", grantC, err)
	}
	if grantC.Range != grantB.Range {
		t.Fatalf("re-lease = %+v, want b's expired range %+v", grantC.Range, grantB.Range)
	}
	if acc, dup, err := coord.Submit("c", layout.Fingerprint, evaluate(grantC.Range)); err != nil || acc != len(partsB) || dup != 0 {
		t.Fatalf("submit c = (%d, %d, %v), want (%d, 0, nil)", acc, dup, err, len(partsB))
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	acc, dup, err = coord.Submit("b", layout.Fingerprint, partsB)
	if err != nil || acc != 0 || dup != len(partsB) {
		t.Fatalf("stale submit b = (%d, %d, %v), want (0, %d, nil)", acc, dup, err, len(partsB))
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(ckpt, after) {
		t.Errorf("stale duplicate batch changed the checkpoint bytes (err %v)", err)
	}
	st = coord.Stats()
	if want := len(partsA) + len(partsB); st.ShardsAccepted != want {
		t.Errorf("ShardsAccepted = %d, want %d (duplicates double-counted)", st.ShardsAccepted, want)
	}
	if st.Duplicates != len(partsB) {
		t.Errorf("Duplicates = %d, want %d", st.Duplicates, len(partsB))
	}
	if st.LeasesExpired != 2 {
		t.Errorf("LeasesExpired = %d, want 2", st.LeasesExpired)
	}

	// Finish the job from a single live worker. Its last batch, the one
	// that completes the job, stays parked in the sink until Phase 3's
	// batch is past its protocol check.
	release := make(chan struct{})
	completed := make(chan error, 1)
	for {
		grant, err := coord.Lease("w", layout.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if grant.LeaseID == "" {
			t.Fatalf("no lease before the job's last batch: %+v", grant)
		}
		parts := evaluate(grant.Range)
		if coord.Stats().Have+len(parts) < layout.Shards {
			if acc, _, err := coord.Submit("w", layout.Fingerprint, parts); err != nil || acc != len(parts) {
				t.Fatalf("submit w = (%d, %v), want %d accepted", acc, err, len(parts))
			}
			continue
		}
		parkMu.Lock()
		gate = release
		parkMu.Unlock()
		go func() {
			acc, dup, err := coord.Submit("w", layout.Fingerprint, parts)
			if err == nil && (acc != len(parts) || dup != 0) {
				err = fmt.Errorf("completing submit = (%d, %d), want (%d, 0)", acc, dup, len(parts))
			}
			completed <- err
		}()
		break
	}
	select {
	case <-parked:
	case err := <-completed:
		t.Fatalf("the completing batch returned (%v) before it reached the sink", err)
	}

	// Phase 3 — a batch that lands after completion: it passes the
	// protocol check while the completing batch is parked (the check's
	// lease prune is the next clock read), and is ingested after it. The
	// whole batch is duplicates, and the stats counter must agree with
	// the answer b gets. Without the park, Run could uninstall the job
	// first, and b would get ErrNoJob, as late batches then do.
	before := coord.Stats().Duplicates
	checked := make(chan struct{})
	clockMu.Lock()
	onRead = checked
	clockMu.Unlock()
	type answer struct {
		acc, dup int
		err      error
	}
	late := make(chan answer, 1)
	go func() {
		acc, dup, err := coord.Submit("b", layout.Fingerprint, partsB)
		late <- answer{acc, dup, err}
	}()
	select {
	case <-checked:
	case a := <-late:
		t.Fatalf("post-completion submit = (%d, %d, %v) without reaching its lease prune", a.acc, a.dup, a.err)
	}
	close(release)
	if err := <-completed; err != nil {
		t.Fatal(err)
	}
	if a := <-late; a.err != nil || a.acc != 0 || a.dup != len(partsB) {
		t.Fatalf("post-completion submit = (%d, %d, %v), want (0, %d, nil)", a.acc, a.dup, a.err, len(partsB))
	}
	if got := coord.Stats().Duplicates; got != before+len(partsB) {
		t.Errorf("post-completion Duplicates = %d, want %d", got, before+len(partsB))
	}

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkChained(t, r.res, "result after late submits")
}

// TestBodyCapReturns413 pins the body-cap contract of the coordinator
// API: an oversized POST answers 413 with the cap in the message — on
// the submit endpoint and the tight control endpoints alike — instead
// of a generic 400 decode error.
func TestBodyCapReturns413(t *testing.T) {
	coord := NewCoordinator(Options{})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	oversized := `{"worker":"w","fingerprint":"` + strings.Repeat("f", (1<<20)+64) + `"}`
	for _, path := range []string{"/dist/v1/submit", "/dist/v1/lease"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(oversized))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(data), "1048576-byte cap") {
			t.Errorf("%s oversized = %d %s, want 413 naming the cap", path, resp.StatusCode, data)
		}
	}

	// A merely-invalid body keeps its 400, and so does a well-formed one
	// with anything after it.
	for _, tc := range []struct{ name, body, want string }{
		{"invalid body", `{"bogus": 1}`, "bogus"},
		{"trailing data", `{"worker":"w","fingerprint":"f"} garbage`, "trailing data"},
	} {
		resp, err := http.Post(srv.URL+"/dist/v1/submit", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), tc.want) {
			t.Errorf("%s = %d %s, want 400 mentioning %q", tc.name, resp.StatusCode, data, tc.want)
		}
	}
}

// TestWorkerRefusesUnservedRoute: a 404 that is not the coordinator's
// JSON error means the server does not serve the route — a worker and a
// coordinator from different builds. The worker must refuse loudly,
// naming the path, instead of reading it as "job over" and dropping its
// shards (with OneJob, returning nil from a job it never finished).
func TestWorkerRefusesUnservedRoute(t *testing.T) {
	g := smallGraph()
	mkGrid := func() *sweep.Grid { return chainedGrid(g) }
	const size = 5
	coord := NewCoordinator(Options{Standby: 5 * time.Millisecond})
	job, _ := gridJob(t, mkGrid, g, size, "", false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startRun(ctx, coord, job)
	waitActive(t, coord)
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/v1/submit" {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	wctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	err := gridWorker("skewed", srv.URL, mkGrid, g, size).Run(wctx)
	if !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), "/dist/v1/submit") {
		t.Errorf("Run against a coordinator without submit = %v, want a protocol mismatch naming /dist/v1/submit", err)
	}
	if st := coord.Stats(); st.ShardsAccepted != 0 {
		t.Errorf("stats %+v: shards accepted through a route that 404s", st)
	}
	cancel()
	<-done

	// The coordinator's own 404s: an idle job endpoint answers its JSON
	// error (the job is over) once it has waited a third of the lease
	// TTL for a job, the retired offer route a plain 404.
	idle := NewCoordinator(Options{LeaseTTL: 30 * time.Millisecond})
	plain := httptest.NewServer(idle.Handler())
	defer plain.Close()
	for _, tc := range []struct {
		method, path string
		want         error
	}{
		{http.MethodGet, "/dist/v1/job", ErrNoJob},
		{http.MethodPost, "/dist/v1/offer", errProtocol},
	} {
		req, err := http.NewRequest(tc.method, plain.URL+tc.path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if got := statusError(tc.path, resp.StatusCode, body); resp.StatusCode != http.StatusNotFound || !errors.Is(got, tc.want) {
			t.Errorf("%s %s = %d %q → %v, want 404 → %v", tc.method, tc.path, resp.StatusCode, body, got, tc.want)
		}
	}
}

// callCounter is a worker transport that counts the calls per route, the
// job route's 404s, and the standby answers among the lease grants that
// come back, from /dist/v1/lease or on a submit's reply.
type callCounter struct {
	base http.RoundTripper

	mu        sync.Mutex
	calls     map[string]int
	jobMisses int
	standbys  int
}

func (cc *callCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := cc.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	var grant *LeaseGrant
	if resp.StatusCode == http.StatusOK {
		switch req.URL.Path {
		case "/dist/v1/lease":
			grant = new(LeaseGrant)
			if err := json.Unmarshal(data, grant); err != nil {
				return nil, err
			}
		case "/dist/v1/submit":
			var sr submitResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				return nil, err
			}
			grant = sr.Grant
		}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.calls[req.URL.Path]++
	if req.URL.Path == "/dist/v1/job" && resp.StatusCode == http.StatusNotFound {
		cc.jobMisses++
	}
	if grant != nil && !grant.Complete && grant.LeaseID == "" {
		cc.standbys++
	}
	return resp, nil
}

// TestCallBudget pins the protocol's round trips on one job and two HTTP
// workers. The workers ask for the job before it is installed, and the
// job route holds both requests until it is, so no 404 reaches them. A
// worker leases through /dist/v1/lease once, and again only after a
// standby answer; every other grant arrives on the reply to the submit
// that ships the previous lease, so submits equal leases granted.
func TestCallBudget(t *testing.T) {
	g := smallGraph()
	mkGrid := func() *sweep.Grid { return chainedGrid(g) }
	const size, workers = 4, 2
	coord := NewCoordinator(Options{LeaseShards: 3, Standby: 5 * time.Millisecond})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	cc := &callCounter{base: http.DefaultTransport, calls: map[string]int{}}
	ctx, cancel := runContext(t)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := range errs {
		w := gridWorker(fmt.Sprintf("w%d", i), srv.URL, mkGrid, g, size)
		w.Client = &http.Client{Transport: cc}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	// Both job requests wait on the coordinator's wakeups before a job
	// is installed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		coord.mu.Lock()
		waiting := len(coord.subs)
		coord.mu.Unlock()
		if waiting == workers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers wait in the job route; it must hold them until a job is installed", waiting, workers)
		}
		time.Sleep(time.Millisecond)
	}
	job, _ := gridJob(t, mkGrid, g, size, "", false, nil)
	done := startRun(ctx, coord, job)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	checkChained(t, r.res, "distributed result")

	st := coord.Stats()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	t.Logf("calls %v, %d standby answers, stats %+v", cc.calls, cc.standbys, st)
	if st.LeasesGranted < 2*workers {
		t.Fatalf("%d leases granted; the job is too small to exercise the budget", st.LeasesGranted)
	}
	if n := cc.calls["/dist/v1/submit"]; n != st.LeasesGranted {
		t.Errorf("%d submits for %d leases granted, want one submit per lease", n, st.LeasesGranted)
	}
	if n, most := cc.calls["/dist/v1/lease"], workers+cc.standbys; n > most {
		t.Errorf("%d lease calls, want at most %d: one per worker and one per standby answer", n, most)
	}
	if cc.jobMisses != 0 {
		t.Errorf("%d job-route 404s while a job was installed, want none", cc.jobMisses)
	}
	if len(cc.calls) != 3 {
		t.Errorf("workers called routes %v, want only job, lease and submit", cc.calls)
	}
}
