package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"sbgp"
)

// runLoop is the single evaluator goroutine: it drains the queue in
// priority order (FIFO within a priority) until the server closes.
// Jobs evaluate one at a time — parallelism lives inside the
// evaluation — so the engine pool hands off cleanly between jobs.
func (s *Server) runLoop() {
	defer close(s.runnerDone)
	for {
		s.mu.Lock()
		var j *job
		for {
			if s.closed {
				s.mu.Unlock()
				return
			}
			if j = s.pickLocked(); j != nil {
				break
			}
			s.cond.Wait()
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		j.State = StateRunning
		j.Started = time.Now().UTC()
		j.cancel = cancel
		s.persistAndNotify(j)
		s.mu.Unlock()

		err := s.evaluate(ctx, j)
		cancel()

		s.mu.Lock()
		j.cancel = nil
		switch {
		case err == nil:
			j.State = StateDone
			j.Finished = time.Now().UTC()
		case j.cancelRequested && errors.Is(err, context.Canceled):
			j.State = StateCancelled
			j.Finished = time.Now().UTC()
		case s.closed && errors.Is(err, context.Canceled):
			// Shutdown, not failure: back to queued so the next Open
			// resumes the job from its checkpoint.
			j.State = StateQueued
		default:
			j.State = StateFailed
			j.Error = err.Error()
			j.Finished = time.Now().UTC()
		}
		s.persistAndNotify(j)
		s.mu.Unlock()
	}
}

// pickLocked returns the queued job with the highest priority (FIFO
// within a priority), or nil.
func (s *Server) pickLocked() *job {
	var best *job
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State != StateQueued {
			continue
		}
		if best == nil || j.Priority > best.Priority ||
			(j.Priority == best.Priority && j.seq < best.seq) {
			best = j
		}
	}
	return best
}

// evaluate runs one job through the shared FromJobSpec → Simulate →
// EvaluateJob path against the warm topology cache and engine pool,
// with the daemon's per-job checkpoint, and writes the result grid
// atomically. With a Distributor configured, the evaluation itself is
// farmed out to workers instead — same checkpoint, same sink, same
// result bytes. It is the long call of the run loop; ctx aborts it.
func (s *Server) evaluate(ctx context.Context, j *job) error {
	s.mu.Lock()
	spec, id := j.Spec, j.ID
	s.mu.Unlock()

	g, meta, err := s.topology(spec.Topology)
	if err != nil {
		return err
	}
	sc, err := sbgp.FromJobSpecOnGraph(spec, g, meta, sbgp.WithContext(ctx))
	if err != nil {
		return err
	}
	sim, err := sc.Simulate()
	if err != nil {
		return err
	}
	cells, shards, err := sim.JobGeometry()
	if err != nil {
		return err
	}
	s.mu.Lock()
	j.Cells, j.ShardsTotal, j.ShardsDone = cells, shards, 0
	s.persistAndNotify(j)
	s.mu.Unlock()

	sink := func(*sbgp.ShardPartial) error {
		s.mu.Lock()
		j.ShardsDone++
		// Progress is broadcast but persisted lazily: the
		// checkpoint, not this counter, is the durable record.
		s.notifyLocked(j)
		s.mu.Unlock()
		return nil
	}
	var res *sbgp.Result
	if d := s.opts.Distributor; d != nil {
		// Distributed evaluation: workers own their engines, so the
		// local pool stays untouched.
		res, err = d.RunSim(ctx, sim, spec, s.CheckpointPath(id), true, sink)
	} else {
		var stats sbgp.ShardStats
		res, err = sim.EvaluateJob(sbgp.JobEvalOptions{
			Checkpoint: s.CheckpointPath(id),
			Resume:     true, // fresh checkpoint = fresh run; restart = resume
			Pool:       &s.pool,
			Sink:       sink,
			Stats:      &stats,
		})
		s.pool.Release()
		if err == nil {
			// Fold this evaluation into the daemon totals (the planner
			// fields are per-schedule values, so totals read as "summed
			// over evaluations").
			s.mu.Lock()
			s.sweep.Units += stats.Units
			s.sweep.HandoffHits += stats.HandoffHits
			s.sweep.HandoffMisses += stats.HandoffMisses
			s.sweep.ChainHeads += stats.ChainHeads
			s.sweep.DeltaEdges += stats.DeltaEdges
			s.sweep.PredictedVolume += stats.PredictedVolume
			s.mu.Unlock()
		}
	}
	if err != nil {
		return err
	}
	if err := writeResultAtomic(s.ResultPath(id), res); err != nil {
		return err
	}
	// The grid is merged and durable; the checkpoint has served its
	// purpose.
	os.Remove(s.CheckpointPath(id))
	return nil
}

// topology returns the warm (graph, meta) for a topology section,
// materializing it on first use, and drops the least recently used entry
// past maxTopologies. Nothing is pinned: the run loop is the only
// evaluator, so the entry in use is the most recent, never the victim,
// and an evaluation holds its graph by pointer anyway.
func (s *Server) topology(t sbgp.TopologySpec) (*sbgp.Graph, *sbgp.TopologyMeta, error) {
	source, err := topologySource(t)
	if err != nil {
		return nil, nil, err
	}
	same := func(e topoEntry) bool { return e.source == source }
	entry := topoEntry{source: source}
	s.mu.Lock()
	i := slices.IndexFunc(s.topos, same)
	if i >= 0 {
		entry = s.topos[i]
	}
	s.mu.Unlock()
	if i < 0 {
		// Outside the lock: generating a 4000-AS graph takes milliseconds
		// and the API keeps answering meanwhile.
		if entry.g, entry.meta, err = t.Load(); err != nil {
			return nil, nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.topos = append(slices.DeleteFunc(s.topos, same), entry)
	if len(s.topos) > maxTopologies {
		s.topos = slices.Delete(s.topos, 0, 1)
	}
	return entry.g, entry.meta, nil
}

// loadJobRecord reads one persisted job record.
func (s *Server) loadJobRecord(id string) (*Job, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, "jobs", id+".json"))
	if err != nil {
		return nil, err
	}
	var rec Job
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	if rec.ID != id {
		return nil, fmt.Errorf("record names %q", rec.ID)
	}
	if rec.Spec == nil {
		return nil, fmt.Errorf("record has no spec")
	}
	if err := rec.Spec.Validate(); err != nil {
		return nil, err
	}
	return &rec, nil
}

// writeFileAtomic writes v as JSON via a temp file + rename, so a
// crash never leaves a half-written record.
func writeFileAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// writeResultAtomic writes a result grid via temp file + rename, in
// the exact bytes Result.WriteJSON produces (the byte-identity
// artifact the lifecycle tests compare against one-shot runs).
func writeResultAtomic(path string, res *sbgp.Result) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := res.WriteJSON(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
