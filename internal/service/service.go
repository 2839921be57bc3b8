// Package service implements the resident sweep daemon behind
// cmd/sbgpd: a long-lived process that materializes each distinct
// topology once (a small LRU), keeps one engine per worker warm in a
// single sbgp.EnginePool whose engines follow every job, whatever its
// graph, size or variant, and evaluates sweep-grid jobs described by the
// unified, versioned sbgp.JobSpec wire format — the same specs
// cmd/experiments -job and cmd/bgpsim -job run one-shot.
//
// Jobs pass through a small state machine (see DESIGN.md):
//
//	queued ──▶ running ──▶ done
//	   │          ├──────▶ failed
//	   └──────────┴──────▶ cancelled
//
// The queue is multi-tenant: jobs carry a priority (higher first, FIFO
// within a priority) and can be cancelled at any time. One job
// evaluates at a time — parallelism lives inside the evaluation, whose
// worker count the job's spec controls — so warm engines hand off
// cleanly from job to job.
//
// Every job is evaluated through the one shared path
// (sbgp.FromJobSpec → Simulate → EvaluateJob) with a per-job
// fingerprinted checkpoint under the daemon's data directory, and each
// completed shard is streamed to subscribers. Because the checkpoint
// is fsync'd per shard and fingerprint-bound to the grid, a daemon
// killed mid-grid resumes the job on restart and produces result bytes
// identical to an uninterrupted one-shot run of the same spec — the
// service's core guarantee, pinned by the lifecycle tests.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sbgp"
)

// State is a job's position in the lifecycle state machine.
type State string

// The job states. Queued and running jobs survive a daemon restart
// (both are requeued and, via the checkpoint, resume mid-grid); the
// terminal states are history.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is the API and persistence record of one submitted job. The
// same JSON shape is served by the status endpoints, streamed as SSE
// events, and stored under <data>/jobs/<id>.json.
type Job struct {
	ID       string        `json:"id"`
	Spec     *sbgp.JobSpec `json:"spec"`
	Priority int           `json:"priority,omitempty"`
	State    State         `json:"state"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Cells and ShardsTotal size the grid (available once running);
	// ShardsDone counts completed shards, resumed ones included.
	Cells       int `json:"cells,omitempty"`
	ShardsTotal int `json:"shards_total,omitempty"`
	ShardsDone  int `json:"shards_done,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// job is the server-side wrapper: the public record plus the run
// plumbing. All fields are guarded by Server.mu.
type job struct {
	Job
	seq    int                // submission order, FIFO tiebreak
	cancel context.CancelFunc // non-nil while running
	// cancelRequested distinguishes a user cancel from a daemon
	// shutdown: both cancel the run context, but only the former is
	// terminal.
	cancelRequested bool
	// subs are the progress subscribers' coalescing wakeup slots: a
	// send is dropped if a wakeup is already pending, so a slow
	// subscriber never blocks the evaluator and still observes the
	// latest snapshot (including, always, the terminal one).
	subs map[chan struct{}]bool
}

// maxTopologies caps the warm topology cache (≈ 400 KiB per 4000-AS graph).
const maxTopologies = 8

// topoEntry is one warm topology: its topologySource, and the graph and
// metadata as Load produces them (Simulate augments with IXPs per job).
type topoEntry struct {
	source string
	g      *sbgp.Graph
	meta   *sbgp.TopologyMeta
}

// topologySource names where a topology section's graph comes from, the
// warm cache's key. The IXP flag is no part of it (a spec and its IXP
// twin share the pre-augmentation graph), and a graph file is named by
// path, size and mod-time, so a file rewritten between jobs is re-read.
func topologySource(t sbgp.TopologySpec) (string, error) {
	if t.GraphFile == "" {
		return fmt.Sprintf("generated n=%d seed=%d", t.N, t.Seed), nil
	}
	fi, err := os.Stat(t.GraphFile)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("file %q size=%d mtime=%d", t.GraphFile, fi.Size(), fi.ModTime().UnixNano()), nil
}

// Distributor is the pluggable distributed-evaluation backend: given a
// materialized simulation and its spec, produce the job's Result by
// farming shard ranges out to workers (internal/dist's Coordinator is
// the in-tree implementation, wired through cmd/sbgpd -dist). The
// checkpoint/resume/sink contract matches Simulation.EvaluateJob, and
// so must the result bytes.
type Distributor interface {
	RunSim(ctx context.Context, sim *sbgp.Simulation, spec *sbgp.JobSpec, checkpoint string, resume bool, sink func(*sbgp.ShardPartial) error) (*sbgp.Result, error)
}

// Options tunes a Server beyond its data directory.
type Options struct {
	// Distributor, when non-nil, evaluates jobs through distributed
	// workers instead of the local engine pool.
	Distributor Distributor
}

// Server is the resident sweep service. Create one with Open, attach
// its Handler to an HTTP server, and Close it to shut down (leaving
// queued and running jobs resumable on the next Open).
type Server struct {
	dir  string
	opts Options

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*job
	order  []string // submission order, for listing
	nextID int
	closed bool

	topos []topoEntry // warm topologies, least recently used first
	// pool holds the warm engines, one per evaluation worker; it needs no
	// key because pooled engines follow each job (sbgp.EnginePool).
	pool sbgp.EnginePool

	// sweep accumulates every locally evaluated job's planner and
	// dispatch counters (distributed evaluations keep their stats on
	// the workers). Guarded by mu; surfaced through Status.
	sweep sbgp.ShardStats

	baseCtx    context.Context
	baseCancel context.CancelFunc
	runnerDone chan struct{}
	// closing is closed by Close before the run loop drains, so
	// long-lived HTTP streams (events, wait) unblock promptly instead
	// of holding their subscriber slots until the client goes away.
	closing chan struct{}
}

// Open starts a server over a data directory with default options.
func Open(dir string) (*Server, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions starts a server over a data directory, creating it as
// needed. Jobs persisted by a previous run are reloaded: terminal jobs
// as history, queued and running jobs requeued — a job that was
// mid-grid when the previous daemon died resumes from its checkpoint.
func OpenOptions(dir string, opts Options) (*Server, error) {
	for _, sub := range []string{"jobs", "results", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		dir:        dir,
		opts:       opts,
		jobs:       map[string]*job{},
		baseCtx:    ctx,
		baseCancel: cancel,
		runnerDone: make(chan struct{}),
		closing:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.reload(); err != nil {
		cancel()
		return nil, err
	}
	go s.runLoop()
	return s, nil
}

// reload restores the persisted job store.
func (s *Server) reload() error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			ids = append(ids, strings.TrimSuffix(e.Name(), ".json"))
		}
	}
	sort.Strings(ids) // zero-padded IDs sort in submission order
	for _, id := range ids {
		rec, err := s.loadJobRecord(id)
		if err != nil {
			return fmt.Errorf("service: corrupt job record %s: %w", id, err)
		}
		j := &job{Job: *rec, seq: len(s.order), subs: map[chan struct{}]bool{}}
		if !j.State.Terminal() {
			// Queued again — running means the previous daemon died
			// mid-grid; the checkpoint has the completed shards and the
			// runner resumes from it.
			j.State = StateQueued
			j.ShardsDone = 0
			if err := s.persist(j); err != nil {
				return err
			}
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		if n := idNumber(id); n >= s.nextID {
			s.nextID = n + 1
		}
	}
	return nil
}

// idNumber extracts the numeric suffix of a job ID (-1 if malformed).
func idNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return -1
	}
	return n
}

// Close stops the server: the queue stops dispatching, a running job
// is interrupted (its checkpoint keeps the completed shards and its
// state record stays non-terminal), and the run loop drains. The data
// directory is left ready for the next Open to resume everything.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.closing)
	s.baseCancel()
	<-s.runnerDone
	return nil
}

// Submit validates and enqueues a job, returning its status record.
// The spec is stored in canonical form; its Checkpoint/Resume fields
// are ignored — the daemon manages a per-job checkpoint of its own.
func (s *Server) Submit(spec *sbgp.JobSpec, priority int) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := spec.Canonical()
	c.Checkpoint, c.Resume = "", false
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("service: server is closed")
	}
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	j := &job{
		Job: Job{
			ID: id, Spec: c, Priority: priority,
			State:     StateQueued,
			Submitted: time.Now().UTC(),
		},
		seq:  len(s.order),
		subs: map[chan struct{}]bool{},
	}
	if err := s.persist(j); err != nil {
		return nil, err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.cond.Signal()
	snap := j.Job
	return &snap, nil
}

// Get returns a job's status snapshot.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	snap := j.Job
	return &snap, true
}

// List returns every job's status snapshot in submission order.
func (s *Server) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		snap := s.jobs[id].Job
		out = append(out, &snap)
	}
	return out
}

// Cancel cancels a job: a queued job goes terminal immediately, a
// running one has its context cancelled and goes terminal when the
// evaluator unwinds — either way the job's checkpoint (if any shards
// completed) is left on disk, so the same spec can be resubmitted and
// resume. Cancelling a terminal job is a no-op; ok is false for an
// unknown ID.
func (s *Server) Cancel(id string) (snap *Job, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return nil, false
	}
	switch j.State {
	case StateQueued:
		j.State = StateCancelled
		j.Finished = time.Now().UTC()
		s.persistAndNotify(j)
	case StateRunning:
		if !j.cancelRequested {
			j.cancelRequested = true
			j.cancel()
		}
	}
	c := j.Job
	return &c, true
}

// ResultPath returns the path of a completed job's result grid.
func (s *Server) ResultPath(id string) string {
	return filepath.Join(s.dir, "results", id+".json")
}

// CheckpointPath returns the path of a job's shard checkpoint.
func (s *Server) CheckpointPath(id string) string {
	return filepath.Join(s.dir, "checkpoints", id+".ckpt")
}

// Status summarizes the daemon for the status endpoint. Sweep totals
// the planner and dispatch counters of every job evaluated locally
// since the daemon started: dispatch units, cross-shard handoff
// hits/misses, and the schedule planner's chain heads, delta edges,
// and predicted edge-volume summed across evaluations.
type Status struct {
	Jobs        map[State]int   `json:"jobs"`
	Topologies  int             `json:"topologies"`
	WarmEngines int             `json:"warm_engines"`
	Sweep       sbgp.ShardStats `json:"sweep"`
}

// Stats returns the daemon summary.
func (s *Server) Stats() *Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &Status{Jobs: map[State]int{}, Topologies: len(s.topos), WarmEngines: s.pool.Size(), Sweep: s.sweep}
	for _, j := range s.jobs {
		st.Jobs[j.State]++
	}
	return st
}

// subscribers reports a job's live subscriber-slot count (prune
// accounting for the SSE regression tests).
func (s *Server) subscribers(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return 0
	}
	return len(j.subs)
}

// Subscribe registers a progress subscriber for a job: a coalescing
// wakeup channel that fires whenever the job's snapshot changes (and
// immediately, so the subscriber always sees the current state).
// unsubscribe must be called when done.
func (s *Server) Subscribe(id string) (wake <-chan struct{}, unsubscribe func(), ok bool) {
	// The initial wakeup goes into the buffered channel before it is
	// registered — and before the lock: the send can never block (the
	// channel is fresh with capacity 1), and no send happens under s.mu.
	ch := make(chan struct{}, 1)
	ch <- struct{}{} // initial snapshot
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return nil, nil, false
	}
	j.subs[ch] = true
	return ch, func() {
		s.mu.Lock()
		delete(j.subs, ch)
		s.mu.Unlock()
	}, true
}

// notifyLocked wakes every subscriber of j (caller holds mu). Sends
// coalesce: a pending wakeup already covers this change.
func (s *Server) notifyLocked(j *job) {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// persist writes j's record atomically to <data>/jobs/<id>.json.
func (s *Server) persist(j *job) error {
	path := filepath.Join(s.dir, "jobs", j.ID+".json")
	return writeFileAtomic(path, &j.Job)
}

// persistAndNotify is persist plus a subscriber wakeup; persistence
// errors at this point (disk full mid-run) are reflected into the job
// record in memory so the API surfaces them.
func (s *Server) persistAndNotify(j *job) {
	if err := s.persist(j); err != nil && j.Error == "" {
		j.Error = fmt.Sprintf("persist: %v", err)
	}
	s.notifyLocked(j)
}
