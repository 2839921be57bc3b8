package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sbgp"
)

// runLoop is the single evaluator goroutine: it drains the queue in
// priority order (FIFO within a priority) until the server closes.
// Jobs evaluate one at a time — parallelism lives inside the
// evaluation — so engine pools hand off cleanly between jobs.
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
	spec := j.Spec
	id := j.ID
	s.mu.Unlock()

	entry, key, err := s.acquireTopology(spec)
	if err != nil {
		return err
	}
	defer s.releaseTopology(key)
	sc, err := sbgp.FromJobSpecOnGraph(spec, entry.g, entry.meta, sbgp.WithContext(ctx))
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
		pk := poolKey{n: sim.Graph().N(), lpk: spec.LPK}
		pool := s.acquirePool(pk)
		var stats sbgp.ShardStats
		res, err = sim.EvaluateJob(sbgp.JobEvalOptions{
			Checkpoint: s.CheckpointPath(id),
			Resume:     true, // fresh checkpoint = fresh run; restart = resume
			Pool:       pool,
			Sink:       sink,
			Stats:      &stats,
		})
		pool.Release()
		s.releasePool(pk)
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

// acquireTopology returns the warm (graph, meta) for a spec's topology
// section, materializing and caching it on first use, and pins it
// against eviction until releaseTopology.
func (s *Server) acquireTopology(spec *sbgp.JobSpec) (*topoEntry, topoKey, error) {
	t := spec.Topology
	key := topoKey{n: t.N, seed: t.Seed, graphFile: t.GraphFile, ixp: t.IXP}
	s.mu.Lock()
	if entry := s.topos[key]; entry != nil {
		entry.inUse++
		s.mu.Unlock()
		return entry, key, nil
	}
	s.mu.Unlock()
	g, meta, err := t.Load()
	if err != nil {
		return nil, key, err
	}
	entry := &topoEntry{g: g, meta: meta}
	s.mu.Lock()
	if prior := s.topos[key]; prior != nil {
		entry = prior // lost a benign race; keep the first
	} else {
		s.topos[key] = entry
	}
	entry.inUse++
	s.mu.Unlock()
	return entry, key, nil
}

// releaseTopology unpins a topology entry and evicts the caches down
// to their caps, least-recently-used and never-in-use first.
func (s *Server) releaseTopology(key topoKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if entry := s.topos[key]; entry != nil && entry.inUse > 0 {
		entry.inUse--
		s.useSeq++
		entry.lastUse = s.useSeq
	}
	s.evictLocked()
}

// acquirePool returns the engine pool for one (graph size, local-
// preference) pair, creating it on first use, pinned until
// releasePool.
func (s *Server) acquirePool(key poolKey) *sbgp.EnginePool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pools[key]
	if p == nil {
		p = &poolEntry{pool: sbgp.NewEnginePool()}
		s.pools[key] = p
	}
	p.inUse++
	return p.pool
}

// releasePool unpins an engine pool and evicts down to the caps.
func (s *Server) releasePool(key poolKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.pools[key]; p != nil && p.inUse > 0 {
		p.inUse--
		s.useSeq++
		p.lastUse = s.useSeq
	}
	s.evictLocked()
}

// evictLocked shrinks both warm caches to their caps (caller holds
// mu). Entries pinned by a running evaluation are never evicted, so a
// cache may transiently exceed its cap while everything in it is in
// use; the next release re-checks. An evicted engine pool simply drops
// its states — abandoning warm engines is always safe, only slower.
func (s *Server) evictLocked() {
	for len(s.topos) > s.opts.maxTopologies() {
		var victim topoKey
		found := false
		for k, e := range s.topos {
			if e.inUse > 0 {
				continue
			}
			if !found || e.lastUse < s.topos[victim].lastUse {
				victim, found = k, true
			}
		}
		if !found {
			return
		}
		delete(s.topos, victim)
	}
	for len(s.pools) > s.opts.maxEnginePools() {
		var victim poolKey
		found := false
		for k, p := range s.pools {
			if p.inUse > 0 {
				continue
			}
			if !found || p.lastUse < s.pools[victim].lastUse {
				victim, found = k, true
			}
		}
		if !found {
			return
		}
		delete(s.pools, victim)
	}
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
