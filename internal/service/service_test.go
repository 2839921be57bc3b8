package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sbgp"
	"sbgp/internal/dist"
)

// smallSpec is a quick sampled grid: 288 cells across 18 shards.
func smallSpec() *sbgp.JobSpec {
	return &sbgp.JobSpec{
		Name:        "small",
		Topology:    sbgp.TopologySpec{N: 300, Seed: 7},
		Deployments: []sbgp.JobDeployment{{Named: "t1t2"}},
		Pairs:       sbgp.PairSpec{MaxM: 6, MaxD: 8},
		ShardSize:   16,
		Workers:     2,
	}
}

// bigSpec is a full-enumeration grid with enough shards (hundreds)
// that cancelling or restarting the daemon reliably lands mid-grid.
func bigSpec() *sbgp.JobSpec {
	return &sbgp.JobSpec{
		Name:        "big",
		Topology:    sbgp.TopologySpec{N: 200, Seed: 11},
		Deployments: []sbgp.JobDeployment{{Named: "t1t2"}},
		Pairs:       sbgp.PairSpec{Full: true},
		ShardSize:   32,
		Workers:     4,
	}
}

// oneShotBytes evaluates a spec through the flat path a CLI -job run
// uses (FromJobSpec → Simulate → EvaluateJob → WriteJSON) and returns
// the result grid bytes.
func oneShotBytes(t *testing.T, spec *sbgp.JobSpec) []byte {
	t.Helper()
	sc, err := sbgp.FromJobSpec(spec)
	if err != nil {
		t.Fatalf("FromJobSpec: %v", err)
	}
	sim, err := sc.Simulate()
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	res, err := sim.EvaluateJob(sbgp.JobEvalOptions{})
	if err != nil {
		t.Fatalf("EvaluateJob: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// bigRefOnce caches the flat reference bytes for bigSpec so the cancel
// and restart tests share one uninterrupted evaluation.
var (
	bigRefOnce  sync.Once
	bigRefBytes []byte
)

func bigReference(t *testing.T) []byte {
	t.Helper()
	bigRefOnce.Do(func() { bigRefBytes = oneShotBytes(t, bigSpec()) })
	if bigRefBytes == nil {
		t.Fatal("reference evaluation failed in an earlier test")
	}
	return bigRefBytes
}

// waitFor subscribes to a job and blocks until pred holds, failing the
// test if the job goes terminal first (unless pred accepts that) or
// the deadline passes.
func waitFor(t *testing.T, s *Server, id string, pred func(*Job) bool) *Job {
	t.Helper()
	wake, unsubscribe, ok := s.Subscribe(id)
	if !ok {
		t.Fatalf("Subscribe(%s): unknown job", id)
	}
	defer unsubscribe()
	deadline := time.After(120 * time.Second)
	for {
		select {
		case <-deadline:
			j, _ := s.Get(id)
			t.Fatalf("timed out waiting on %s (state %+v)", id, j)
		case <-wake:
			j, ok := s.Get(id)
			if !ok {
				t.Fatalf("job %s disappeared", id)
			}
			if pred(j) {
				return j
			}
			if j.State.Terminal() {
				t.Fatalf("job %s terminal (%s, error %q) before condition held", id, j.State, j.Error)
			}
		}
	}
}

func terminal(j *Job) bool { return j.State.Terminal() }

func TestJobLifecycleByteIdentity(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := smallSpec()
	j, err := s.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.Submitted.IsZero() {
		t.Fatalf("fresh job: %+v", j)
	}

	done := waitFor(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })
	if done.Cells == 0 || done.ShardsTotal == 0 || done.ShardsDone != done.ShardsTotal {
		t.Fatalf("completed job progress: cells=%d shards=%d/%d",
			done.Cells, done.ShardsDone, done.ShardsTotal)
	}
	if done.Started.IsZero() || done.Finished.IsZero() {
		t.Fatalf("completed job timestamps: %+v", done)
	}

	got, err := os.ReadFile(s.ResultPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if want := oneShotBytes(t, smallSpec()); !bytes.Equal(got, want) {
		t.Fatalf("daemon result differs from one-shot evaluation (%d vs %d bytes)", len(got), len(want))
	}
	if _, err := os.Stat(s.CheckpointPath(j.ID)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not removed after completion: %v", err)
	}

	// Warm state is retained for the next job on this topology.
	st := s.Stats()
	if st.Topologies != 1 || st.Jobs[StateDone] != 1 {
		t.Fatalf("stats after completion: %+v", st)
	}
	if st.WarmEngines == 0 {
		t.Fatal("engine pool is cold after a completed job")
	}
}

// TestWarmEnginesFollowTheTopology alternates jobs over two topologies
// of one size: the engine pool is keyed by (n, LP), so both feed one
// pool whose engines rebind to each job's graph instead of a second set
// being built — the warm-engine count stays at one engine per worker
// however many topologies pass through — and every result still equals
// the one-shot evaluation of its spec. The jobs are one default-size
// shard each, so both workers run inside it (sliced strips), and their
// baseline ⊂ t1t2 chain walks RunDelta on the rebound engines.
func TestWarmEnginesFollowTheTopology(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	specFor := func(seed int64) *sbgp.JobSpec {
		sp := smallSpec()
		sp.Topology.Seed = seed
		sp.ShardSize = 0
		return sp
	}
	want := map[int64][]byte{7: oneShotBytes(t, specFor(7)), 8: oneShotBytes(t, specFor(8))}
	for round := 0; round < 3; round++ {
		for _, seed := range []int64{7, 8} {
			j, err := s.Submit(specFor(seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })
			got, err := os.ReadFile(s.ResultPath(j.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[seed]) {
				t.Fatalf("round %d seed %d: result on rebound engines differs from the one-shot evaluation", round, seed)
			}
		}
	}
	st := s.Stats()
	if st.Topologies != 2 || st.EnginePools != 1 {
		t.Fatalf("%d topologies share %d engine pools, want 2 sharing 1", st.Topologies, st.EnginePools)
	}
	// One engine per worker, whatever the topology and however many
	// models the jobs sweep.
	if workers := smallSpec().Workers; st.WarmEngines == 0 || st.WarmEngines > workers {
		t.Fatalf("%d warm engines after jobs on two topologies, want 1..%d (engines follow the graph)", st.WarmEngines, workers)
	}
}

// countCheckpointShards returns the number of completed-shard records
// in a checkpoint file (lines after the header).
func countCheckpointShards(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 1 {
		t.Fatalf("checkpoint %s is empty", path)
	}
	return len(lines) - 1
}

func TestCancelMidGridLeavesResumableCheckpoint(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j, err := s.Submit(bigSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Let a few shards land so the cancel is genuinely mid-grid.
	waitFor(t, s, j.ID, func(j *Job) bool {
		return j.State == StateRunning && j.ShardsDone >= 2
	})
	if _, ok := s.Cancel(j.ID); !ok {
		t.Fatal("Cancel: unknown job")
	}
	fin := waitFor(t, s, j.ID, terminal)
	if fin.State != StateCancelled {
		t.Fatalf("state after cancel: %s (error %q)", fin.State, fin.Error)
	}
	if fin.ShardsDone >= fin.ShardsTotal {
		t.Fatalf("cancel landed after the grid finished: %d/%d shards", fin.ShardsDone, fin.ShardsTotal)
	}

	// The checkpoint survives with the completed shards, and a one-shot
	// run resuming from it produces bytes identical to an uninterrupted
	// flat evaluation of the same spec.
	cp := s.CheckpointPath(j.ID)
	if n := countCheckpointShards(t, cp); n < 1 {
		t.Fatalf("cancelled checkpoint has %d shard records", n)
	}
	sc, err := sbgp.FromJobSpec(bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sc.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.EvaluateJob(sbgp.JobEvalOptions{Checkpoint: cp, Resume: true})
	if err != nil {
		t.Fatalf("resume from cancelled checkpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), bigReference(t)) {
		t.Fatal("resumed result differs from uninterrupted one-shot run")
	}
}

func TestRestartMidJobResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(bigSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mid := waitFor(t, s1, j.ID, func(j *Job) bool {
		return j.State == StateRunning && j.ShardsDone >= 2
	})
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The shutdown left the job non-terminal on disk with its
	// checkpoint intact.
	rec, err := s1.loadJobRecord(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued {
		t.Fatalf("persisted state after shutdown: %s", rec.State)
	}
	ckptShards := countCheckpointShards(t, s1.CheckpointPath(j.ID))
	if ckptShards < 1 {
		t.Fatalf("checkpoint after shutdown has %d shard records", ckptShards)
	}
	if ckptShards >= mid.ShardsTotal {
		t.Fatalf("job finished before shutdown: %d/%d shards", ckptShards, mid.ShardsTotal)
	}

	// A fresh daemon over the same data directory requeues the job,
	// resumes it from the checkpoint, and finishes with bytes identical
	// to a run that was never interrupted.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fin := waitFor(t, s2, j.ID, terminal)
	if fin.State != StateDone {
		t.Fatalf("state after restart: %s (error %q)", fin.State, fin.Error)
	}
	if fin.ShardsDone != fin.ShardsTotal {
		t.Fatalf("resumed job progress: %d/%d shards", fin.ShardsDone, fin.ShardsTotal)
	}
	got, err := os.ReadFile(s2.ResultPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bigReference(t)) {
		t.Fatal("restart-resumed result differs from uninterrupted one-shot run")
	}
}

func TestPriorityAndCancelQueued(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// While the first job runs, the rest queue up; the high-priority
	// one jumps ahead and a queued one cancels instantly.
	first, err := s.Submit(smallSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	low, err := s.Submit(smallSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(smallSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(smallSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}

	if c, ok := s.Cancel(victim.ID); !ok || c.State != StateCancelled {
		t.Fatalf("cancel queued job: ok=%v state=%v", ok, c)
	}

	waitFor(t, s, first.ID, terminal)
	lowFin := waitFor(t, s, low.ID, terminal)
	highFin := waitFor(t, s, high.ID, terminal)
	if lowFin.State != StateDone || highFin.State != StateDone {
		t.Fatalf("states: low=%s high=%s", lowFin.State, highFin.State)
	}
	if !highFin.Started.Before(lowFin.Started) {
		t.Fatalf("priority 5 job started %v, after priority 0 job at %v",
			highFin.Started, lowFin.Started)
	}
	if vc, _ := s.Get(victim.ID); vc.State != StateCancelled {
		t.Fatalf("victim state: %s", vc.State)
	}
}

func TestSubmitValidatesAndStripsCheckpoint(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Submit(&sbgp.JobSpec{Models: []int{9}}, 0); err == nil {
		t.Fatal("invalid spec accepted")
	}
	spec := smallSpec()
	spec.Checkpoint = "/tmp/elsewhere.ckpt"
	spec.Resume = true
	j, err := s.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Spec.Checkpoint != "" || j.Spec.Resume {
		t.Fatalf("daemon kept caller checkpoint settings: %+v", j.Spec)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(smallSpec(), 0); err == nil {
		t.Fatal("Submit after Close accepted")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp, _ := post("/jobs", `{"spec": {"version": 1}, "bogus": true}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown submit field: %d", resp.StatusCode)
	}
	if resp, _ := post("/jobs", `{"spec": {"version": 1, "models": [9]}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", resp.StatusCode)
	}
	if resp, _ := get("/jobs/job-999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}

	specJSON, err := json.Marshal(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"spec": %s, "priority": 1}`, specJSON)

	// Two submissions: the second queues behind the first, so its
	// result endpoint answers 409 before it is done.
	resp, data := post("/jobs", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var j1 Job
	if err := json.Unmarshal(data, &j1); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+j1.ID {
		t.Fatalf("Location: %q", loc)
	}
	if j1.Priority != 1 || j1.Spec == nil {
		t.Fatalf("submitted job: %+v", j1)
	}
	resp, data = post("/jobs", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second submit: %d %s", resp.StatusCode, data)
	}
	var j2 Job
	if err := json.Unmarshal(data, &j2); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get("/jobs/" + j2.ID + "/result"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result before done: %d", resp.StatusCode)
	}

	// Long-poll both to completion; then result serves the grid bytes.
	for _, id := range []string{j1.ID, j2.ID} {
		resp, data = get("/jobs/" + id + "/wait")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wait %s: %d %s", id, resp.StatusCode, data)
		}
		var fin Job
		if err := json.Unmarshal(data, &fin); err != nil {
			t.Fatal(err)
		}
		if fin.State != StateDone {
			t.Fatalf("wait %s: state %s error %q", id, fin.State, fin.Error)
		}
	}
	resp, data = get("/jobs/" + j1.ID + "/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	if want := oneShotBytes(t, smallSpec()); !bytes.Equal(data, want) {
		t.Fatal("HTTP result differs from one-shot evaluation")
	}

	// The SSE stream of a finished job delivers its terminal snapshot.
	resp, data = get("/jobs/" + j1.ID + "/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type: %q", ct)
	}
	if !strings.Contains(string(data), `"state":"done"`) {
		t.Fatalf("events stream missing terminal snapshot: %q", data)
	}

	// Cancelling a terminal job is an idempotent no-op.
	resp, data = post("/jobs/"+j1.ID+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel done job: %d", resp.StatusCode)
	}
	var c Job
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if c.State != StateDone {
		t.Fatalf("cancel of done job changed state: %s", c.State)
	}

	resp, data = get("/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []Job
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list has %d jobs", len(list))
	}

	resp, data = get("/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs[StateDone] != 2 || st.Topologies != 1 {
		t.Fatalf("status: %+v", st)
	}
}

// TestHistorySurvivesRestart pins that terminal jobs reload as history
// and IDs keep counting from where the previous daemon stopped.
func TestHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(smallSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s1, j.ID, terminal)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	old, ok := s2.Get(j.ID)
	if !ok || old.State != StateDone {
		t.Fatalf("history after restart: ok=%v job=%+v", ok, old)
	}
	next, err := s2.Submit(smallSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if next.ID == j.ID {
		t.Fatalf("restarted daemon reused job ID %s", next.ID)
	}
	waitFor(t, s2, next.ID, terminal)
}

// TestCacheEviction pins the warm-cache LRU contract: both caches
// evict least-recently-used entries down to their caps, and an entry
// pinned by a running evaluation is never evicted even when the cache
// is over cap.
func TestCacheEviction(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{MaxTopologies: 2, MaxEnginePools: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	specFor := func(seed int64) *sbgp.JobSpec {
		sp := smallSpec()
		sp.Topology.Seed = seed
		return sp
	}
	keyFor := func(seed int64) topoKey {
		return topoKey{n: smallSpec().Topology.N, seed: seed}
	}

	// Pin topology 1, then churn 2, 3, 4 through the 2-entry cache.
	entry1, key1, err := s.acquireTopology(specFor(1))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed <= 4; seed++ {
		if _, _, err := s.acquireTopology(specFor(seed)); err != nil {
			t.Fatal(err)
		}
		s.releaseTopology(keyFor(seed))
	}
	s.mu.Lock()
	nTopos := len(s.topos)
	pinned := s.topos[key1]
	_, has3 := s.topos[keyFor(3)]
	_, has4 := s.topos[keyFor(4)]
	s.mu.Unlock()
	if nTopos != 2 {
		t.Fatalf("topology cache holds %d entries, cap 2", nTopos)
	}
	if pinned != entry1 {
		t.Fatal("in-use topology was evicted under pressure")
	}
	if has3 || !has4 {
		t.Fatalf("LRU order wrong: seed3=%v seed4=%v (want only the newest unpinned survivor)", has3, has4)
	}

	// Over-cap while everything is pinned: nothing is evictable, the
	// cache transiently exceeds its cap, and no pinned entry vanishes.
	if _, _, err := s.acquireTopology(specFor(4)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.acquireTopology(specFor(5)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	nTopos = len(s.topos)
	s.mu.Unlock()
	if nTopos != 3 {
		t.Fatalf("fully pinned cache: %d entries (want 3: all pinned, none evictable)", nTopos)
	}
	// Releasing shrinks back to cap.
	s.releaseTopology(key1)
	s.releaseTopology(keyFor(4))
	s.releaseTopology(keyFor(5))
	s.mu.Lock()
	nTopos = len(s.topos)
	_, has1 := s.topos[key1]
	s.mu.Unlock()
	if nTopos != 2 || has1 {
		t.Fatalf("after releases: %d entries, seed1 present=%v (want 2 newest)", nTopos, has1)
	}

	// Engine pools follow the same discipline.
	pk := func(lpk int) poolKey { return poolKey{n: smallSpec().Topology.N, lpk: lpk} }
	pinnedPool := s.acquirePool(pk(0))
	for i := 2; i <= 4; i++ {
		s.acquirePool(pk(i))
		s.releasePool(pk(i))
	}
	s.mu.Lock()
	nPools := len(s.pools)
	pe := s.pools[pk(0)]
	s.mu.Unlock()
	if nPools != 2 {
		t.Fatalf("pool cache holds %d entries, cap 2", nPools)
	}
	if pe == nil || pe.pool != pinnedPool {
		t.Fatal("in-use engine pool was evicted under pressure")
	}
	s.releasePool(pk(0))
	s.mu.Lock()
	nPools = len(s.pools)
	s.mu.Unlock()
	if nPools != 2 {
		t.Fatalf("pool cache holds %d entries after release, cap 2", nPools)
	}
}

// blockingDistributor parks every evaluation until its context is
// cancelled, keeping a job in StateRunning for as long as a test needs
// (the SSE regression tests below want a live job whose stream never
// terminates on its own).
type blockingDistributor struct{}

func (blockingDistributor) RunSim(ctx context.Context, _ *sbgp.Simulation, _ *sbgp.JobSpec, _ string, _ bool, _ func(*sbgp.ShardPartial) error) (*sbgp.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func running(j *Job) bool { return j.State == StateRunning }

// TestEventStreamPrunesDisconnectedSubscribers pins the regression
// where SSE subscribers that disconnected mid-stream kept their
// subscriber slots (and handler goroutines) until the job changed
// state: repeated connect/drop cycles against a job that never
// progresses must drain back to zero slots promptly.
func TestEventStreamPrunesDisconnectedSubscribers(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{Distributor: blockingDistributor{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(smallSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, j.ID, running)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/jobs/"+j.ID+"/events", nil)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Read the initial snapshot so the handler is parked in its
		// select loop, then drop the connection mid-stream.
		if _, err := resp.Body.Read(make([]byte, 1)); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.subscribers(j.ID) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriber slots leaked after disconnects", s.subscribers(j.ID))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseUnblocksEventStreams pins that Server.Close promptly
// unblocks parked events/wait handlers instead of leaving them (and
// the HTTP server's shutdown) hanging on clients that never disconnect.
func TestCloseUnblocksEventStreams(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), Options{Distributor: blockingDistributor{}})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(smallSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, j.ID, running)
	ts := httptest.NewServer(s.Handler())

	done := make(chan error, 2)
	stream := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			done <- err
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- err
	}
	go stream("/jobs/" + j.ID + "/events")
	go stream("/jobs/" + j.ID + "/wait")

	deadline := time.Now().Add(10 * time.Second)
	for s.subscribers(j.ID) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("streams never subscribed (%d slots)", s.subscribers(j.ID))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-time.After(15 * time.Second):
			t.Fatal("stream handler did not unblock after Close")
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// With the handlers drained, the HTTP server shuts down promptly.
	ts.Close()
	if n := s.subscribers(j.ID); n != 0 {
		t.Fatalf("%d subscriber slots leaked after Close", n)
	}
}

// TestDaemonDistributedByteIdentity runs the daemon with a real
// internal/dist Coordinator as its Distributor and two spec-driven
// workers over HTTP — the cmd/sbgpd -dist wiring in miniature — and
// pins that the distributed result bytes match a one-shot local run.
func TestDaemonDistributedByteIdentity(t *testing.T) {
	coord := dist.NewCoordinator(dist.Options{LeaseShards: 4, LeaseTTL: 5 * time.Second})
	s, err := OpenOptions(t.TempDir(), Options{Distributor: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := &dist.Worker{
			Base: ts.URL,
			ID:   fmt.Sprintf("daemon-w%d", i),
			Poll: 10 * time.Millisecond,
		}
		go w.Run(ctx)
	}

	j, err := s.Submit(smallSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, s, j.ID, terminal)
	if fin.State != StateDone {
		t.Fatalf("distributed job: state %s error %q", fin.State, fin.Error)
	}
	if fin.ShardsDone != fin.ShardsTotal || fin.ShardsTotal == 0 {
		t.Fatalf("distributed progress: %d/%d shards", fin.ShardsDone, fin.ShardsTotal)
	}
	got, err := os.ReadFile(s.ResultPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if want := oneShotBytes(t, smallSpec()); !bytes.Equal(got, want) {
		t.Fatal("daemon distributed result differs from one-shot evaluation")
	}
	if _, err := os.Stat(s.CheckpointPath(j.ID)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not removed after distributed completion: %v", err)
	}
}

// TestSubmitBodyCap413 pins the job API's body-cap contract: an
// oversized POST /jobs answers 413 with the cap in the message, not a
// generic 400 decode error. Separate from TestHTTPEndpoints because the
// aborted upload churns the client's connection pool.
func TestSubmitBodyCap413(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	oversized := `{"spec": {"version": 1, "note": "` + strings.Repeat("x", (1<<20)+64) + `"}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(oversized))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(data), "1048576-byte cap") {
		t.Fatalf("oversized submit = %d %s, want 413 naming the cap", resp.StatusCode, data)
	}
	if got := s.List(); len(got) != 0 {
		t.Fatalf("oversized submit created %d jobs", len(got))
	}
}

// TestSubmitLPKBound400: "lpk" is bounded on the wire like topology.n.
// The LPk stage plan is O(k) stages built per engine and walked per run,
// so an unbounded k would pin the daemon's single run loop (or exhaust
// its memory building the plan); the submit answers 400 naming the limit
// and persists nothing.
func TestSubmitLPKBound400(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	body := `{"spec": {"version": 1, "topology": {"n": 300, "seed": 7}, "lpk": 50000000, "pairs": {"max_m": 2, "max_d": 2}}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "lpk=50000000 is outside [0, 64]") {
		t.Fatalf("lpk=50000000 submit = %d %s, want 400 naming the limit", resp.StatusCode, data)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("rejection took %v, want well under a second", elapsed)
	}

	// The Go-level entry point applies the same rule.
	spec := smallSpec()
	spec.LPK = 200000
	if _, err := s.Submit(spec, 0); err == nil || !strings.Contains(err.Error(), "outside [0, 64]") {
		t.Fatalf("Submit(lpk=200000) = %v, want the lpk bound error", err)
	}

	if got := s.List(); len(got) != 0 {
		t.Fatalf("rejected submits created %d jobs", len(got))
	}
	records, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("rejected submits left %d job records", len(records))
	}
}
