package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
)

// CheckpointWriter is the one shard store. Whoever computes partials —
// the local shard loop, remote workers submitting to a coordinator, a
// caller merging a finished set — commits them here: validated against
// the layout, deduplicated by shard index, appended to an fsync'd
// JSON-lines file when a path is set, and folded into one positional
// task accumulator; the partials themselves are never kept. Idempotence
// by shard index is what the distributed reconcile path leans on: the
// first accepted partial for a shard wins, every later submission is a
// no-op, and a crash between accept and ack costs at most a re-send.
// Safe for concurrent use.
type CheckpointWriter struct {
	mu     sync.Mutex
	layout Layout
	f      *os.File // nil: memory-only
	closed bool
	have   []bool // dense, indexed by shard
	count  int
	// acc is the task accumulator every accepted partial folds into.
	// Positional integer addition is associative and commutative, so any
	// arrival order — resumed records included — reproduces the serial
	// aggregate byte for byte, and nothing holds O(shards) partials.
	acc []destAcc
	// resumed are the shards loaded from a resumed file, ascending.
	resumed []*ShardPartial
}

// OpenCheckpointWriter opens a store for the layout. With a non-empty
// path the store is durable: each accepted partial is an fsync'd record,
// and with resume set an existing file's shards are loaded as
// already-have (the file must match the layout's fingerprint and
// geometry; without a usable file, resume behaves like a fresh run). An
// empty path keeps everything in memory.
func OpenCheckpointWriter(path string, l *Layout, resume bool) (*CheckpointWriter, error) {
	return openStore(path, l, false, resume)
}

// openStore is OpenCheckpointWriter with the shard-size policy of a
// resume made explicit: with adopt set, a resumed file cut under a
// different shard size re-cuts the store's layout to the file's (shard
// indices are meaningless under any other partition); without it the
// conflict is an error.
func openStore(path string, l *Layout, adopt, resume bool) (*CheckpointWriter, error) {
	if err := l.geometry(); err != nil {
		return nil, err
	}
	w := &CheckpointWriter{layout: *l}
	if path != "" {
		if err := w.openFile(path, adopt, resume); err != nil {
			return nil, err
		}
	}
	w.have = make([]bool, w.layout.Shards)
	w.acc = make([]destAcc, w.layout.Tasks)
	for _, p := range w.resumed {
		w.fold(p)
	}
	slices.SortFunc(w.resumed, func(a, b *ShardPartial) int { return a.Shard - b.Shard })
	return w, nil
}

// openFile opens path for the store's layout. With resume set and a
// usable existing file the completed shards are loaded and the file is
// opened for append; otherwise the file is created (or truncated) and
// the header written and synced.
func (w *CheckpointWriter) openFile(path string, adopt, resume bool) error {
	if resume {
		data, err := os.ReadFile(path)
		switch {
		// A file without a single complete ('\n'-terminated) line holds
		// no durable record — at most a header torn by a crash during a
		// previous open — and is restarted from scratch below.
		case err == nil && bytes.IndexByte(data, '\n') >= 0:
			if perr := w.parse(data, adopt); perr != nil {
				return fmt.Errorf("sweep: resume %s: %w", path, perr)
			}
			f, ferr := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				return ferr
			}
			// Drop a torn final line before appending: without this, the
			// first new record would fuse with the torn bytes into an
			// invalid interior line and poison every later resume. The
			// truncation is fsync'd (file and directory) before any new
			// record lands, so a crash right here cannot resurrect the
			// torn bytes under freshly appended ones.
			if valid := bytes.LastIndexByte(data, '\n') + 1; valid < len(data) {
				terr := f.Truncate(int64(valid))
				if terr == nil {
					terr = f.Sync()
				}
				if terr == nil {
					terr = syncDir(path)
				}
				if terr != nil {
					f.Close()
					return terr
				}
			}
			w.f = f
			return nil
		case err != nil && !os.IsNotExist(err):
			return err
		}
		// No file (or an empty one, from a crash before the header
		// landed): fall through to a fresh run.
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	err = w.writeRecord(checkpointHeader{
		V:           checkpointVersion,
		Kind:        recordHeader,
		Fingerprint: w.layout.Fingerprint,
		Cells:       w.layout.Cells,
		ShardSize:   w.layout.ShardSize,
		Shards:      w.layout.Shards,
	})
	if err == nil {
		// Make the file's directory entry durable: without this, a crash
		// after sweep start could lose the whole file, per-record fsyncs
		// notwithstanding.
		err = syncDir(path)
	}
	if err != nil {
		f.Close()
	}
	return err
}

// parse validates a checkpoint file's contents against the store's
// layout and loads its completed shard partials into w.resumed (first
// record wins on duplicates, which can only carry identical contents).
// With adopt set the header's shard size replaces the layout's.
func (w *CheckpointWriter) parse(data []byte, adopt bool) error {
	l := &w.layout
	lines := bytes.Split(data, []byte("\n"))
	// Drop trailing blank lines so "last line" means the last record.
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	seen := make(map[int]bool)
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			return fmt.Errorf("line %d: blank line inside checkpoint", i+1)
		}
		hdr, p, err := decodeCheckpointLine(line)
		if err != nil {
			if i == len(lines)-1 && i > 0 {
				// Torn final append from a crash mid-write: every
				// earlier record was fsync'd whole, so ignore it.
				break
			}
			return fmt.Errorf("line %d: %w", i+1, err)
		}
		if i == 0 {
			if hdr == nil {
				return fmt.Errorf("line 1: first record is not a header")
			}
			if hdr.Fingerprint != l.Fingerprint || hdr.Cells != l.Cells {
				return fmt.Errorf("checkpoint belongs to a different sweep "+
					"(fingerprint %s cells=%d; want %s cells=%d)",
					hdr.Fingerprint, hdr.Cells, l.Fingerprint, l.Cells)
			}
			if !adopt && l.ShardSize != hdr.ShardSize {
				return fmt.Errorf("checkpoint uses shard size %d, not %d "+
					"(omit the shard size to adopt the file's)", hdr.ShardSize, l.ShardSize)
			}
			l.ShardSize, l.Shards = hdr.ShardSize, hdr.Shards
			continue
		}
		if hdr != nil {
			return fmt.Errorf("line %d: duplicate header", i+1)
		}
		if p.Shard >= l.Shards {
			return fmt.Errorf("line %d: shard %d out of range [0,%d)", i+1, p.Shard, l.Shards)
		}
		for _, ti := range p.Tasks {
			if ti >= l.Tasks {
				return fmt.Errorf("line %d: task %d out of range [0,%d)", i+1, ti, l.Tasks)
			}
		}
		if !seen[p.Shard] {
			seen[p.Shard] = true
			w.resumed = append(w.resumed, p)
		}
	}
	return nil
}

// writeRecord appends one JSON line and syncs it to stable storage, so
// a record that exists is complete and a crash can tear at most the
// line currently being written.
func (w *CheckpointWriter) writeRecord(rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(append(data, '\n')); err != nil {
		return err
	}
	return w.f.Sync()
}

// fold adds one validated, not-yet-held partial to the accumulator and
// the have-set.
func (w *CheckpointWriter) fold(p *ShardPartial) {
	for i, ti := range p.Tasks {
		a := &w.acc[ti]
		a.lo += p.Lo[i]
		a.hi += p.Hi[i]
		a.pairs += p.Pairs[i]
	}
	w.have[p.Shard] = true
	w.count++
}

// Resumed returns the shards loaded from a resumed checkpoint file in
// shard order, for replay to a sink that must observe every shard.
func (w *CheckpointWriter) Resumed() []*ShardPartial {
	return w.resumed
}

// Add ingests one shard partial. It returns (true, nil) if the partial
// was accepted (and, for a durable store, fsync'd), (false, nil) if the
// shard was already present — the idempotent duplicate case — and
// (false, err) if the partial fails validation against the layout or
// the durable append fails. Validation failure leaves the store
// unchanged and usable; an append failure means durability is gone and
// the store should be abandoned. The record is marshalled and the counts
// folded before Add returns, so p may be the caller's reusable scratch.
// Add fsyncs on the durable path, so it is declared //sbgp:blocking: the
// lockblock analyzer flags any caller in service or dist that invokes it
// while holding a mutex.
//
//sbgp:blocking
func (w *CheckpointWriter) Add(p *ShardPartial) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false, fmt.Errorf("sweep: checkpoint writer is closed")
	}
	if err := w.layout.ValidatePartial(p); err != nil {
		return false, err
	}
	if w.have[p.Shard] {
		return false, nil
	}
	if w.f != nil {
		if err := w.writeRecord(shardRecord{Kind: recordShard, ShardPartial: p}); err != nil {
			return false, err
		}
	}
	w.fold(p)
	return true, nil
}

// Have reports whether shard s has been ingested.
func (w *CheckpointWriter) Have(s int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return s >= 0 && s < len(w.have) && w.have[s]
}

// HaveCount returns how many distinct shards have been ingested.
func (w *CheckpointWriter) HaveCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Shards returns the layout's total shard count.
func (w *CheckpointWriter) Shards() int {
	return w.layout.Shards
}

// Complete reports whether every shard has been ingested.
func (w *CheckpointWriter) Complete() bool {
	return w.HaveCount() == w.layout.Shards
}

// HaveRanges returns the ingested shards as maximal disjoint ranges in
// ascending order — the compact have-set advertisement of the
// reconciliation protocol: a reconnecting worker diffs its held shards
// against these ranges and ships only what the coordinator is missing.
func (w *CheckpointWriter) HaveRanges() []ShardRange { return w.ranges(true) }

// Missing returns the shards not yet ingested, as maximal disjoint
// ranges in ascending order — what is left for RunShards.
func (w *CheckpointWriter) Missing() []ShardRange { return w.ranges(false) }

// ranges lists the maximal runs of shards whose have-bit equals held.
func (w *CheckpointWriter) ranges(held bool) []ShardRange {
	w.mu.Lock()
	defer w.mu.Unlock()
	var ranges []ShardRange
	for s := 0; s < len(w.have); {
		e := s + 1
		for e < len(w.have) && w.have[e] == w.have[s] {
			e++
		}
		if w.have[s] == held {
			ranges = append(ranges, ShardRange{Start: s, End: e})
		}
		s = e
	}
	return ranges
}

// Close closes the store. The in-memory state stays readable
// (HaveRanges, Plan.Result, …) but further Adds fail. Idempotent.
func (w *CheckpointWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}
