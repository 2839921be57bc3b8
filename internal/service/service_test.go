package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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

// waitBudget bounds one wait in a test: two minutes, or a twentieth of
// the time the test binary has left if that is less, so a job that never
// finishes fails its own test by name and leaves the package time to run
// and report the rest.
func waitBudget(t *testing.T) time.Duration {
	d := 2 * time.Minute
	if end, ok := t.Deadline(); ok {
		d = min(d, time.Until(end)/20)
	}
	return d
}

// waitFor subscribes to a job and blocks until pred holds, failing the
// test if the job goes terminal first (unless pred accepts that) or
// the wait's budget runs out.
func waitFor(t *testing.T, s *Server, id string, pred func(*Job) bool) *Job {
	t.Helper()
	wake, unsubscribe, ok := s.Subscribe(id)
	if !ok {
		t.Fatalf("Subscribe(%s): unknown job", id)
	}
	defer unsubscribe()
	deadline := time.After(waitBudget(t))
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

// TestWarmEnginesFollowTheTopology cycles jobs over two topologies of one
// size, the IXP-augmented twin of one of them, and a third topology of
// another size under LP2: all feed the daemon's one engine pool, whose
// engines rebind to a same-size graph and are rebuilt on a size or LP
// change instead of a set being kept per topology — the warm-engine
// count stays at one engine per worker whatever passes through — and
// every result still equals the one-shot evaluation of its spec. The
// jobs are one default-size shard each, so both workers run inside it
// (sliced strips), and their baseline ⊂ t1t2 chain walks RunDelta on the
// followed engines.
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
	ixp := specFor(7)
	ixp.Topology.IXP = true
	other := specFor(9)
	other.Topology.N, other.LPK = 200, 2
	specs := []*sbgp.JobSpec{specFor(7), specFor(8), ixp, other}
	want := make([][]byte, len(specs))
	for i, sp := range specs {
		want[i] = oneShotBytes(t, sp)
	}
	if bytes.Equal(want[0], want[2]) {
		t.Fatal("the IXP twin evaluates to the plain spec's bytes: augmentation is not exercised")
	}
	for round := 0; round < 3; round++ {
		for i, sp := range specs {
			j, err := s.Submit(sp, 0)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })
			got, err := os.ReadFile(s.ResultPath(j.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d spec %d: result on followed engines differs from the one-shot evaluation", round, i)
			}
		}
	}
	st := s.Stats()
	// The cached graph is pre-augmentation: a spec and its IXP twin are
	// one topology.
	if st.Topologies != 3 {
		t.Fatalf("%d warm topologies after four specs over three (n, seed) sources, want 3", st.Topologies)
	}
	// One engine per worker, whatever the topology, size or LP variant and
	// however many models the jobs sweep.
	if workers := smallSpec().Workers; st.WarmEngines == 0 || st.WarmEngines > workers {
		t.Fatalf("%d warm engines after jobs on three topologies of two sizes, want 1..%d (engines follow the job)", st.WarmEngines, workers)
	}
}

// writeGraphFile generates the (n, seed) topology into path, stamped
// with mtime so two writes differ in it whatever the filesystem's clock
// granularity.
func writeGraphFile(t *testing.T, path string, n int, seed int64, mtime time.Time) {
	t.Helper()
	g, _, err := sbgp.TopologySpec{N: n, Seed: seed}.Load()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := asgraph.WriteTo(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// TestRewrittenGraphFileIsReread: a file topology is cached under (path,
// size, mod-time), so a graph file rewritten between two submits is read
// again and the second job answers on the new graph — byte-identical to
// a one-shot run of the same spec, as for every job.
func TestRewrittenGraphFileIsReread(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	path := filepath.Join(t.TempDir(), "topology.graph")
	spec := &sbgp.JobSpec{
		Topology:    sbgp.TopologySpec{GraphFile: path},
		Deployments: []sbgp.JobDeployment{{Named: "t1t2"}},
		Pairs:       sbgp.PairSpec{MaxM: 4, MaxD: 4},
		Workers:     1,
	}
	run := func() []byte {
		t.Helper()
		j, err := s.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })
		got, err := os.ReadFile(s.ResultPath(j.ID))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	stamp := time.Now().Add(-time.Hour)
	writeGraphFile(t, path, 200, 1, stamp)
	first := oneShotBytes(t, spec)
	if got := run(); !bytes.Equal(got, first) {
		t.Fatal("first job differs from the one-shot evaluation of the graph file")
	}
	if got := run(); !bytes.Equal(got, first) {
		t.Fatal("second job on the untouched file differs from the first")
	}
	if n := s.Stats().Topologies; n != 1 {
		t.Fatalf("%d warm topologies after two jobs on one untouched file, want 1", n)
	}

	writeGraphFile(t, path, 200, 2, stamp.Add(time.Minute))
	second := oneShotBytes(t, spec)
	if bytes.Equal(first, second) {
		t.Fatal("the rewritten graph evaluates to the old bytes: the rewrite is not exercised")
	}
	if got := run(); !bytes.Equal(got, second) {
		t.Fatal("job after the rewrite answered on the stale graph")
	}

	// The stale entry is an ordinary cache entry — unpinned, oldest — and
	// ages out once maxTopologies newer ones have passed through.
	current, err := topologySource(spec.Topology)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= maxTopologies-1; seed++ {
		if _, _, err := s.topology(sbgp.TopologySpec{N: 50, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if n, kept := s.Stats().Topologies, cached(s, current); n != maxTopologies || !kept {
		t.Fatalf("cache holds %d topologies (current file kept=%v), want %d with the stale file entry evicted first", n, kept, maxTopologies)
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

// TestWarmMemoSurvivesFaults: the daemon's engine pool keeps the baseline
// memo of a job that never finished, and a job that failed, as sound as
// that of a job that did. Every job here is one model over the baseline
// and one deployment, with one worker, so the counters are exact; the
// what-if job's schedule is one nested chain, so cold it makes no memo
// hit (checked) and each hit it makes is a slot an earlier job filled.
//   - A job cancelled mid-walk leaves a partly filled memo, and /status
//     counts its units and fills. A what-if job with another deployment on
//     the same warm topology and pairs then hits the memo — /status
//     memo_hits rises — and its bytes equal a one-shot run's.
//   - An evaluation on the daemon's pool that fails in its sink, as a job
//     whose sink errors would, leaves the pool usable: the next what-if
//     job fills nothing, hits every pair, and still lands on the one-shot
//     bytes.
func TestWarmMemoSurvivesFaults(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spec := func(deployment string) *sbgp.JobSpec {
		return &sbgp.JobSpec{
			Topology:    sbgp.TopologySpec{N: 200, Seed: 11},
			Models:      []int{3},
			Deployments: []sbgp.JobDeployment{{Named: deployment}},
			Pairs:       sbgp.PairSpec{Full: true},
			ShardSize:   4,
			Workers:     1,
		}
	}
	// oneShot is a CLI -job run, with its counters.
	oneShot := func(sp *sbgp.JobSpec) ([]byte, sbgp.ShardStats) {
		t.Helper()
		sc, err := sbgp.FromJobSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := sc.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		var st sbgp.ShardStats
		res, err := sim.EvaluateJob(sbgp.JobEvalOptions{Stats: &st})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), st
	}
	// daemonJob runs sp through the daemon and returns its bytes and the
	// memo hits and fills it added to /status.
	daemonJob := func(sp *sbgp.JobSpec) (got []byte, hits, fills int) {
		t.Helper()
		before := s.Stats().Sweep
		j, err := s.Submit(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })
		if got, err = os.ReadFile(s.ResultPath(j.ID)); err != nil {
			t.Fatal(err)
		}
		after := s.Stats().Sweep
		return got, after.MemoHits - before.MemoHits, after.MemoFills - before.MemoFills
	}

	whatIf, cold := oneShot(spec("t2"))
	if cold.MemoHits != 0 || cold.MemoFills == 0 {
		t.Fatalf("a cold job made %d memo hits and %d fills, want fills only", cold.MemoHits, cold.MemoFills)
	}

	before := s.Stats().Sweep
	j, err := s.Submit(spec("t1t2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, s, j.ID, func(j *Job) bool { return j.State == StateRunning && j.ShardsDone >= 2 })
	if _, ok := s.Cancel(j.ID); !ok {
		t.Fatal("Cancel: unknown job")
	}
	if fin := waitFor(t, s, j.ID, terminal); fin.State != StateCancelled || fin.ShardsDone >= fin.ShardsTotal {
		t.Fatalf("cancelled job ended %s at %d/%d shards, want cancelled mid-grid", fin.State, fin.ShardsDone, fin.ShardsTotal)
	}
	// /status counts the cancelled job's work like a finished one's.
	if after := s.Stats().Sweep; after.Units <= before.Units || after.MemoFills <= before.MemoFills {
		t.Errorf("/status sweep went from %d units and %d memo fills to %d and %d over a cancelled job, want both to grow",
			before.Units, before.MemoFills, after.Units, after.MemoFills)
	}
	got, hits, fills := daemonJob(spec("t2"))
	if !bytes.Equal(got, whatIf) {
		t.Fatal("the what-if job after a cancelled one differs from the one-shot run")
	}
	if hits == 0 || fills >= cold.MemoFills {
		t.Errorf("what-if job after a cancel: %d memo hits and %d fills, want hits and fewer than a cold job's %d fills",
			hits, fills, cold.MemoFills)
	}

	// A failing evaluation on the daemon's pool and warm topology; the run
	// loop is idle, so nothing else holds the pool.
	failing := spec("t1t2cp")
	g, meta, err := s.topology(failing.Topology)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sbgp.FromJobSpecOnGraph(failing, g, meta)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sc.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink failed")
	delivered := 0
	var st sbgp.ShardStats
	_, err = sim.EvaluateJob(sbgp.JobEvalOptions{Pool: &s.pool, Stats: &st, Sink: func(*sbgp.ShardPartial) error {
		if delivered++; delivered == 3 {
			return boom
		}
		return nil
	}})
	s.pool.Release()
	if !errors.Is(err, boom) {
		t.Fatalf("evaluation with a failing sink returned %v, want the sink's error", err)
	}
	if st.MemoHits == 0 {
		t.Error("the failing evaluation made no memo hit: it did not run on the warm memo")
	}

	after, _ := oneShot(spec("nonstubs"))
	got, hits, fills = daemonJob(spec("nonstubs"))
	if !bytes.Equal(got, after) {
		t.Fatal("the what-if job after a failed evaluation differs from the one-shot run")
	}
	if hits == 0 || fills != 0 {
		t.Errorf("what-if job on a fully warm memo: %d memo hits and %d fills, want hits only", hits, fills)
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
	if resp, data := post("/jobs", `{"spec": {"version": 1, "topology": {"n": 300, "seed": 7}, "pairs": {}}} garbage`); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "trailing data") {
		t.Fatalf("trailing data after the submit body: %d %s, want 400 naming it", resp.StatusCode, data)
	}
	if resp, data := post("/jobs", `{"spec": {"version": 1, "topology": {"n": 300, "seed": 7}, "pairs": {}, "workers": 100000}}`); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "workers=100000 is outside [0, 1024]") {
		t.Fatalf("unbounded workers: %d %s, want 400 naming the limit", resp.StatusCode, data)
	}
	if got := s.List(); len(got) != 0 {
		t.Fatalf("rejected submits created %d jobs", len(got))
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

// TestHistorySurvivesRestart pins that terminal jobs reload as history,
// a record an older daemon wrote as running reloads queued and runs,
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
	stale := &job{Job: *waitFor(t, s1, j.ID, terminal)}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	stale.ID, stale.State = "job-000002", StateRunning
	if err := s1.persist(stale); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec, err := s2.loadJobRecord(stale.ID); err != nil || rec.State == StateRunning {
		t.Fatalf("a running record after reload: %+v, %v", rec, err)
	}
	if fin := waitFor(t, s2, stale.ID, terminal); fin.State != StateDone {
		t.Fatalf("requeued job: state %s error %q", fin.State, fin.Error)
	}
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

// cached reports whether the warm topology cache holds source.
func cached(s *Server, source string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.ContainsFunc(s.topos, func(e topoEntry) bool { return e.source == source })
}

// TestCacheEviction pins the topology cache's LRU rule: past
// maxTopologies the least recently used entry goes, a re-used entry
// counts as recent, and the entry just handed out is never the victim.
func TestCacheEviction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	topo := func(seed int64) sbgp.TopologySpec { return sbgp.TopologySpec{N: 50, Seed: seed} }
	use := func(seed int64) *sbgp.Graph {
		t.Helper()
		g, _, err := s.topology(topo(seed))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	has := func(seed int64) bool {
		key, err := topologySource(topo(seed))
		if err != nil {
			t.Fatal(err)
		}
		return cached(s, key)
	}

	first := use(1)
	for seed := int64(2); seed <= maxTopologies; seed++ {
		use(seed)
	}
	if use(1) != first {
		t.Fatal("a cached topology was rebuilt while the cache was within its cap")
	}
	// The ninth topology evicts the oldest — seed 2, since 1 was just
	// used again.
	use(maxTopologies + 1)
	if n := s.Stats().Topologies; n != maxTopologies {
		t.Fatalf("topology cache holds %d entries, cap %d", n, maxTopologies)
	}
	if has(2) || !has(1) || !has(3) || !has(maxTopologies+1) {
		t.Fatalf("LRU order wrong: seed1=%v seed2=%v seed3=%v newest=%v (want only seed 2 gone)",
			has(1), has(2), has(3), has(maxTopologies+1))
	}
}

// blockingDistributor parks every evaluation until its context is
// cancelled, keeping a job in StateRunning for as long as a test needs
// (the SSE regression tests below want a live job whose stream never
// terminates on its own).
type blockingDistributor struct{}

func (blockingDistributor) RunSim(sim *sbgp.Simulation, _ *sbgp.JobSpec, _ sbgp.JobEvalOptions) (*sbgp.Result, error) {
	ctx := sim.Context()
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

// TestWaitAnswers503OnShutdown pins the regression where a /wait
// long-poll on a running job answered an empty 200 OK when the daemon
// shut down: closing the server, or cancelling the base context the
// HTTP server derives request contexts from (as sbgpd does on a
// signal), must answer 503 with the usual JSON error.
func TestWaitAnswers503OnShutdown(t *testing.T) {
	for _, how := range []string{"close", "base context"} {
		t.Run(how, func(t *testing.T) {
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
			base, cancelBase := context.WithCancel(context.Background())
			defer cancelBase()
			ts := httptest.NewUnstartedServer(s.Handler())
			ts.Config.BaseContext = func(net.Listener) context.Context { return base }
			ts.Start()
			defer ts.Close()

			type reply struct {
				code int
				body []byte
				err  error
			}
			replies := make(chan reply, 1)
			go func() {
				resp, err := http.Get(ts.URL + "/jobs/" + j.ID + "/wait")
				if err != nil {
					replies <- reply{err: err}
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				replies <- reply{resp.StatusCode, body, err}
			}()
			deadline := time.Now().Add(10 * time.Second)
			for s.subscribers(j.ID) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the wait request never subscribed")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if how == "close" {
				s.Close()
			} else {
				cancelBase()
			}
			var r reply
			select {
			case r = <-replies:
			case <-time.After(15 * time.Second):
				t.Fatal("the wait request did not return")
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			var body struct{ Error string }
			if err := json.Unmarshal(r.body, &body); err != nil || r.code != http.StatusServiceUnavailable || body.Error == "" {
				t.Fatalf("wait answered %d %q (decode error %v), want 503 with a JSON error", r.code, r.body, err)
			}
		})
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
// internal/dist Coordinator as its Distributor and spec-driven workers
// over HTTP — the cmd/sbgpd -dist wiring in miniature — and pins that
// the distributed result bytes match a one-shot local run, and that the
// job's counters reach /status as a local daemon's do. With one worker
// evaluating on one goroutine every field is equal. With two, the
// fields ShardStats calls the same at every worker count are equal, and
// so are the valid cells, each exactly one memo hit, run, delta step or
// no-op.
func TestDaemonDistributedByteIdentity(t *testing.T) {
	oneWorker := smallSpec()
	oneWorker.Workers = 1
	for _, tc := range []struct {
		name    string
		spec    *sbgp.JobSpec
		workers int
	}{{"1-worker", oneWorker, 1}, {"2-workers", smallSpec(), 2}} {
		t.Run(tc.name, func(t *testing.T) {
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
			for i := 0; i < tc.workers; i++ {
				w := &dist.Worker{
					Base:    ts.URL,
					ID:      fmt.Sprintf("daemon-w%d", i),
					Poll:    10 * time.Millisecond,
					Workers: tc.spec.Workers,
				}
				go w.Run(ctx)
			}

			j, err := s.Submit(tc.spec, 0)
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
			if want := oneShotBytes(t, tc.spec); !bytes.Equal(got, want) {
				t.Fatal("daemon distributed result differs from one-shot evaluation")
			}
			if _, err := os.Stat(s.CheckpointPath(j.ID)); !os.IsNotExist(err) {
				t.Fatalf("checkpoint not removed after distributed completion: %v", err)
			}

			local, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()
			lj, err := local.Submit(tc.spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if fin := waitFor(t, local, lj.ID, terminal); fin.State != StateDone {
				t.Fatalf("local job: state %s error %q", fin.State, fin.Error)
			}
			gotStats, wantStats := s.Stats().Sweep, local.Stats().Sweep
			if wantStats.Units == 0 {
				t.Fatalf("the local daemon counted no work: %+v", wantStats)
			}
			if tc.workers == 1 {
				if gotStats != wantStats {
					t.Fatalf("-dist /status sweep\n%+v\nlocal\n%+v", gotStats, wantStats)
				}
				return
			}
			independent := func(st sbgp.ShardStats) sbgp.ShardStats {
				return sbgp.ShardStats{
					Units: st.Units, HandoffHits: st.HandoffHits, HandoffMisses: st.HandoffMisses,
					MemoHits:   st.MemoHits + st.Runs + st.DeltaSteps + st.NoOps, // the valid cells
					ChainHeads: st.ChainHeads, DeltaEdges: st.DeltaEdges, PredictedVolume: st.PredictedVolume,
				}
			}
			if g, w := independent(gotStats), independent(wantStats); g != w {
				t.Fatalf("-dist /status sweep, worker-count-independent fields (memo_hits: the valid cells)\n%+v\nlocal\n%+v", g, w)
			}
		})
	}
}

// errInjected is the evaluation fault failingEvaluator injects.
var errInjected = errors.New("injected evaluation fault")

// failingEvaluator is the spec-driven evaluator whose sink fails on the
// first shard of every range.
type failingEvaluator struct{ *dist.PlanEvaluator }

func (e failingEvaluator) EvaluateShards(r sbgp.ShardRange, _ func(*sbgp.ShardPartial) error) error {
	return e.PlanEvaluator.EvaluateShards(r, func(*sbgp.ShardPartial) error { return errInjected })
}

// openFailing is a Worker.Open that rebuilds the job from its spec as
// the default does and wraps the evaluator in failingEvaluator.
func openFailing(ctx context.Context, raw json.RawMessage) (dist.Evaluator, error) {
	spec, err := sbgp.ReadJobSpec(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	sc, err := sbgp.FromJobSpec(spec, sbgp.WithContext(ctx))
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
	return failingEvaluator{&dist.PlanEvaluator{Ctx: ctx, Plan: pl, Layout: layout}}, nil
}

// TestDaemonDistributedWorkerFailure: a worker whose evaluation fails
// reports the cause on a submit, and the daemon records the job failed,
// naming the worker and the cause, long before the worker's stranded
// lease could expire.
func TestDaemonDistributedWorkerFailure(t *testing.T) {
	const ttl = time.Minute
	coord := dist.NewCoordinator(dist.Options{LeaseShards: 4, LeaseTTL: ttl})
	s, err := OpenOptions(t.TempDir(), Options{Distributor: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &dist.Worker{Base: ts.URL, ID: "faulty-w", Poll: 10 * time.Millisecond, Open: openFailing}
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()

	start := time.Now()
	j, err := s.Submit(smallSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, s, j.ID, terminal)
	if elapsed := time.Since(start); elapsed > ttl/4 {
		t.Errorf("the job took %v to fail, want well inside the %v lease TTL", elapsed, ttl)
	}
	if fin.State != StateFailed || !strings.Contains(fin.Error, "worker faulty-w") || !strings.Contains(fin.Error, errInjected.Error()) {
		t.Fatalf("job: state %s error %q, want failed naming the worker and the cause", fin.State, fin.Error)
	}
	select {
	case err := <-ran:
		if !errors.Is(err, errInjected) {
			t.Errorf("the worker returned %v, want its evaluation error", err)
		}
	case <-time.After(waitBudget(t)):
		t.Error("the worker did not return after its evaluation failed")
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
