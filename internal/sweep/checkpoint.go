package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// This file is the checkpoint *format*: record shapes, the line decoder
// and its context-free validation. CheckpointWriter
// (checkpoint_writer.go) is the one type that opens, parses and appends
// to checkpoint files.
//
// The checkpoint file is JSON lines: a header record binding the file
// to one exact grid, then one shard record per completed shard, each
// fsync'd before the shard counts as done. Records may appear in any
// completion order; shard partials merge positionally. A torn final
// line (a crash mid-append) is tolerated on resume — the fsync
// discipline guarantees every *earlier* line is complete — while
// corruption anywhere else fails the resume.

// checkpointVersion is the format version written and accepted.
const checkpointVersion = 1

// The record kinds.
const (
	recordHeader = "header"
	recordShard  = "shard"
)

// checkpointHeader is the first line of a checkpoint file.
type checkpointHeader struct {
	V           int    `json:"v"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	Cells       int    `json:"cells"`
	ShardSize   int    `json:"shard_size"`
	Shards      int    `json:"shards"`
}

// checkpointLine is the union decode target for one line: the header's
// fields plus a shard record's.
type checkpointLine struct {
	checkpointHeader

	// Shard is a pointer so a header line (no "shard" key) is
	// distinguishable from shard 0.
	Shard *int  `json:"shard,omitempty"`
	Tasks []int `json:"tasks,omitempty"`
	Lo    []int `json:"lo,omitempty"`
	Hi    []int `json:"hi,omitempty"`
	Pairs []int `json:"pairs,omitempty"`
}

// decodeCheckpointLine parses and validates one checkpoint line into
// either a header or a shard partial. It enforces every invariant that
// does not require grid context: kinds, version, shape consistency
// (equal-length parallel arrays, strictly increasing task indices,
// non-negative counts, lo ≤ hi, counts zero iff pairs zero). Range
// checks against a concrete grid (shard < shards, task < tasks) are the
// loader's job.
func decodeCheckpointLine(data []byte) (*checkpointHeader, *ShardPartial, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var ln checkpointLine
	if err := dec.Decode(&ln); err != nil {
		return nil, nil, err
	}
	// Trailing garbage after the JSON object is corruption, not a record.
	if dec.More() {
		return nil, nil, fmt.Errorf("trailing data after record")
	}
	switch ln.Kind {
	case recordHeader:
		if ln.V != checkpointVersion {
			return nil, nil, fmt.Errorf("unsupported checkpoint version %d", ln.V)
		}
		if len(ln.Fingerprint) != 16 {
			return nil, nil, fmt.Errorf("malformed fingerprint %q", ln.Fingerprint)
		}
		if ln.Cells <= 0 || ln.ShardSize <= 0 || ln.Shards != numShards(ln.Cells, ln.ShardSize) {
			return nil, nil, fmt.Errorf("inconsistent header geometry (cells=%d shard_size=%d shards=%d)",
				ln.Cells, ln.ShardSize, ln.Shards)
		}
		if ln.Shard != nil || ln.Tasks != nil || ln.Lo != nil || ln.Hi != nil || ln.Pairs != nil {
			return nil, nil, fmt.Errorf("header carries shard fields")
		}
		return &ln.checkpointHeader, nil, nil
	case recordShard:
		if ln.Shard == nil {
			return nil, nil, fmt.Errorf("shard record without a valid shard index")
		}
		p := &ShardPartial{
			Shard: *ln.Shard, Tasks: ln.Tasks, Lo: ln.Lo, Hi: ln.Hi, Pairs: ln.Pairs,
		}
		if err := validatePartialShape(p); err != nil {
			return nil, nil, err
		}
		return nil, p, nil
	default:
		return nil, nil, fmt.Errorf("unknown record kind %q", ln.Kind)
	}
}

// validatePartialShape enforces every context-free invariant of a shard
// partial: a non-negative shard index, equal-length parallel arrays,
// strictly increasing task indices, and positive pair counts with
// 0 ≤ lo ≤ hi. It is the shared gate for partials arriving from any
// untrusted edge — checkpoint lines, coordinator submissions — while
// range checks against a concrete grid (shard < shards, task < tasks)
// stay with the caller that knows the grid (Layout.ValidatePartial,
// CheckpointWriter.parse).
func validatePartialShape(p *ShardPartial) error {
	if p.Shard < 0 {
		return fmt.Errorf("shard record without a valid shard index")
	}
	n := len(p.Tasks)
	if len(p.Lo) != n || len(p.Hi) != n || len(p.Pairs) != n {
		return fmt.Errorf("shard %d: ragged arrays (%d tasks, %d lo, %d hi, %d pairs)",
			p.Shard, n, len(p.Lo), len(p.Hi), len(p.Pairs))
	}
	for i := 0; i < n; i++ {
		if p.Tasks[i] < 0 || (i > 0 && p.Tasks[i] <= p.Tasks[i-1]) {
			return fmt.Errorf("shard %d: task indices not strictly increasing", p.Shard)
		}
		if p.Pairs[i] <= 0 || p.Lo[i] < 0 || p.Hi[i] < p.Lo[i] {
			return fmt.Errorf("shard %d: invalid counts at task %d (lo=%d hi=%d pairs=%d)",
				p.Shard, p.Tasks[i], p.Lo[i], p.Hi[i], p.Pairs[i])
		}
	}
	return nil
}

// syncDir fsyncs the directory containing path. Per-record f.Sync()
// makes the *contents* durable, but a newly created file's directory
// entry is not durable until its parent directory is synced — without
// this, a crash shortly after sweep start can lose the whole checkpoint
// despite every record having been fsync'd.
func syncDir(path string) error {
	if runtime.GOOS == "windows" {
		// Directories cannot be fsync'd through a read-only handle on
		// Windows (FlushFileBuffers fails); NTFS metadata journaling
		// covers the directory entry. Same policy as etcd/badger.
		return nil
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// shardRecord tags a ShardPartial with its record kind for the wire.
type shardRecord struct {
	Kind string `json:"kind"`
	*ShardPartial
}
