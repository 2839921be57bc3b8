package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sbgp/internal/topogen"
)

// TestOpenCheckpointTruncateReopen unit-tests the torn-tail recovery
// path in isolation: a resuming store must truncate the torn bytes from
// the file itself (not just ignore them in memory) and sync the
// truncation, so records appended afterwards form valid lines and every
// later resume parses the whole file.
func TestOpenCheckpointTruncateReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")

	const fp = "0123456789abcdef"
	hdr, _ := json.Marshal(checkpointHeader{
		V: checkpointVersion, Kind: recordHeader, Fingerprint: fp,
		Cells: 40, ShardSize: 8, Shards: 5,
	})
	s0, _ := json.Marshal(shardRecord{Kind: recordShard, ShardPartial: &ShardPartial{
		Shard: 0, Tasks: []int{0, 1}, Lo: []int{3, 4}, Hi: []int{3, 5}, Pairs: []int{2, 2},
	}})
	s1, _ := json.Marshal(shardRecord{Kind: recordShard, ShardPartial: &ShardPartial{
		Shard: 2, Tasks: []int{3}, Lo: []int{1}, Hi: []int{2}, Pairs: []int{1},
	}})
	var file bytes.Buffer
	for _, line := range [][]byte{hdr, s0, s1} {
		file.Write(line)
		file.WriteByte('\n')
	}
	complete := file.Len()
	file.WriteString(`{"kind":"shard","shard":4,"tasks":[`) // torn final append
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// No shard size requested (the layout carries the default), so the
	// resume adopts the file's.
	requested := &Layout{Fingerprint: fp, Cells: 40, Tasks: 10, ShardSize: DefaultShardSize, Shards: 1}
	cp, err := openStore(path, requested, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if l := cp.layout; l.ShardSize != 8 || l.Shards != 5 {
		t.Errorf("resume adopted layout %+v, want the file's shard size 8 (5 shards)", l)
	}
	if len(cp.Resumed()) != 2 || cp.HaveCount() != 2 {
		t.Errorf("resume loaded %d partials (have %d), want 2", len(cp.Resumed()), cp.HaveCount())
	}
	// The torn tail must be gone from the file itself before anything
	// is appended.
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(complete) {
		t.Errorf("file size after reopen = %v (err %v), want %d (torn tail truncated)", fi.Size(), err, complete)
	}

	// A record appended post-truncation starts on a fresh line.
	if added, err := cp.Add(&ShardPartial{Shard: 4, Tasks: []int{9}, Lo: []int{1}, Hi: []int{1}, Pairs: []int{1}}); err != nil || !added {
		t.Fatalf("Add after truncation = (%v, %v)", added, err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// A second resume of the same file — this time under the file's own
	// layout, the OpenCheckpointWriter way — parses all three records and
	// a clean tail.
	file8 := cp.layout
	cp2, err := OpenCheckpointWriter(path, &file8, true)
	if err != nil {
		t.Fatalf("file unparseable after truncate-reopen-append: %v", err)
	}
	defer cp2.Close()
	resumed := cp2.Resumed()
	if len(resumed) != 3 {
		t.Fatalf("second resume loaded %d partials, want 3", len(resumed))
	}
	if p := resumed[2]; p.Shard != 4 || len(p.Tasks) != 1 || p.Tasks[0] != 9 {
		t.Errorf("appended record corrupted: %+v", p)
	}
}

// TestOpenCheckpointTornTailIsNotResumed: whatever follows the last
// whole record — a record that lacks only its newline, a terminated line
// that does not decode, blank lines — is torn. Resume must neither count
// it (the store would hold a shard that is not on disk) nor keep it in
// the file (records appended after it would become interior corruption).
func TestOpenCheckpointTornTailIsNotResumed(t *testing.T) {
	const fp = "0123456789abcdef"
	hdr, _ := json.Marshal(checkpointHeader{
		V: checkpointVersion, Kind: recordHeader, Fingerprint: fp,
		Cells: 40, ShardSize: 8, Shards: 5,
	})
	rec := func(shard int) []byte {
		b, _ := json.Marshal(shardRecord{Kind: recordShard, ShardPartial: &ShardPartial{
			Shard: shard, Tasks: []int{shard}, Lo: []int{1}, Hi: []int{1}, Pairs: []int{1},
		}})
		return b
	}
	whole := append(append(append(hdr, '\n'), rec(0)...), '\n')
	layout := Layout{Fingerprint: fp, Cells: 40, Tasks: 10, ShardSize: 8, Shards: 5}
	for name, tail := range map[string]string{
		"record lacking only its newline": string(rec(2)),
		"terminated undecodable line":     `{"kind":"shard","sh` + "\n",
		"trailing blank lines":            "\n \n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.ckpt")
			if err := os.WriteFile(path, append(slices.Clone(whole), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			w, err := OpenCheckpointWriter(path, &layout, true)
			if err != nil {
				t.Fatal(err)
			}
			if w.HaveCount() != 1 || w.Have(2) || len(w.Resumed()) != 1 {
				t.Errorf("resume holds %d shards (Have(2) = %v), want only the whole record's shard 0", w.HaveCount(), w.Have(2))
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(whole)) {
				t.Errorf("file size after reopen = %v (err %v), want %d (torn tail truncated)", fi.Size(), err, len(whole))
			}
			if added, err := w.Add(&ShardPartial{Shard: 2, Tasks: []int{2}, Lo: []int{1}, Hi: []int{1}, Pairs: []int{1}}); err != nil || !added {
				t.Fatalf("Add(shard 2) = (%v, %v)", added, err)
			}
			w.Close()
			w, err = OpenCheckpointWriter(path, &layout, true)
			if err != nil {
				t.Fatalf("file unparseable after reopen and append: %v", err)
			}
			defer w.Close()
			if w.HaveCount() != 2 || !w.Have(0) || !w.Have(2) {
				t.Errorf("second resume holds %v, want shards 0 and 2", w.HaveRanges())
			}
		})
	}
}

// TestParseCheckpointOutOfOrderDuplicates pins the format-level
// ingestion contract the distributed reconcile path leans on: shard
// records may land in any order and may repeat (a worker re-sending
// after a lost ack), and parsing keeps the first record per shard —
// replayed in shard order, folded once.
func TestParseCheckpointOutOfOrderDuplicates(t *testing.T) {
	const fp = "0123456789abcdef"
	hdr, _ := json.Marshal(checkpointHeader{
		V: checkpointVersion, Kind: recordHeader, Fingerprint: fp,
		Cells: 40, ShardSize: 8, Shards: 5,
	})
	rec := func(shard, lo int) []byte {
		b, _ := json.Marshal(shardRecord{Kind: recordShard, ShardPartial: &ShardPartial{
			Shard: shard, Tasks: []int{shard}, Lo: []int{lo}, Hi: []int{lo}, Pairs: []int{1},
		}})
		return b
	}
	var file bytes.Buffer
	// Out of order, with shard 3 written twice (identical contents are
	// the only thing a correct worker can produce; first wins either
	// way).
	for _, line := range [][]byte{hdr, rec(3, 7), rec(0, 1), rec(4, 9), rec(3, 7), rec(1, 2)} {
		file.Write(line)
		file.WriteByte('\n')
	}
	w := &CheckpointWriter{layout: Layout{Fingerprint: fp, Cells: 40, Tasks: 10, ShardSize: DefaultShardSize, Shards: 1}}
	if valid, err := w.parse(file.Bytes(), true); err != nil || valid != file.Len() {
		t.Fatalf("parse = (%d, %v), want every one of %d bytes whole", valid, err, file.Len())
	}
	if w.layout.ShardSize != 8 || w.layout.Shards != 5 {
		t.Errorf("adopted layout %+v, want shard size 8 (5 shards)", w.layout)
	}
	if len(w.resumed) != 4 {
		t.Fatalf("parsed %d distinct partials, want 4", len(w.resumed))
	}
	seen := map[int]bool{}
	for _, p := range w.resumed {
		if seen[p.Shard] {
			t.Errorf("shard %d surfaced twice", p.Shard)
		}
		seen[p.Shard] = true
	}
	for _, s := range []int{0, 1, 3, 4} {
		if !seen[s] {
			t.Errorf("shard %d missing from parse", s)
		}
	}
	// An explicit conflicting size is refused rather than adopted.
	w = &CheckpointWriter{layout: Layout{Fingerprint: fp, Cells: 40, Tasks: 10, ShardSize: 10, Shards: 4}}
	if _, err := w.parse(file.Bytes(), false); err == nil || !strings.Contains(err.Error(), "shard size 8, not 10") {
		t.Errorf("conflicting shard size: err = %v, want the adopt-the-file's hint", err)
	}
	// A second header and a shard one past the last are corruption, not
	// records to skip or keep.
	for _, bad := range []struct {
		line []byte
		want string
	}{{hdr, "line 2: duplicate header"}, {rec(5, 1), "line 2: shard 5 out of range"}} {
		w = &CheckpointWriter{layout: Layout{Fingerprint: fp, Cells: 40, Tasks: 10, ShardSize: 8, Shards: 5}}
		if _, err := w.parse(append(append(slices.Clone(hdr), '\n'), append(bad.line, '\n')...), false); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("parse: err = %v, want %q", err, bad.want)
		}
	}
}

// TestCheckpointWriterIngestion exercises the coordinator-facing
// ingestion API: out-of-order Adds, idempotent duplicates (no second
// disk record), validation failures that leave the writer untouched,
// compact have-range advertisement, and resume across reopen.
func TestCheckpointWriterIngestion(t *testing.T) {
	layout := &Layout{Fingerprint: "0123456789abcdef", Cells: 40, Tasks: 10, ShardSize: 8, Shards: 5}
	path := filepath.Join(t.TempDir(), "writer.ckpt")
	w, err := OpenCheckpointWriter(path, layout, false)
	if err != nil {
		t.Fatal(err)
	}
	part := func(shard int) *ShardPartial {
		return &ShardPartial{Shard: shard, Tasks: []int{shard}, Lo: []int{1}, Hi: []int{2}, Pairs: []int{1}}
	}

	// Out of order: 3, 0, 4.
	for _, s := range []int{3, 0, 4} {
		added, err := w.Add(part(s))
		if err != nil || !added {
			t.Fatalf("Add(shard %d) = (%v, %v), want (true, nil)", s, added, err)
		}
	}
	sizeAfter := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := sizeAfter()

	// Duplicate: idempotent no-op, nothing appended to disk.
	if added, err := w.Add(part(3)); err != nil || added {
		t.Fatalf("duplicate Add = (%v, %v), want (false, nil)", added, err)
	}
	if after := sizeAfter(); after != before {
		t.Errorf("duplicate Add grew the file %d -> %d bytes", before, after)
	}

	// Invalid partials: rejected, state unchanged.
	for name, bad := range map[string]*ShardPartial{
		"shard out of range": part(5),
		"negative shard":     {Shard: -1},
		"ragged arrays":      {Shard: 1, Tasks: []int{0, 1}, Lo: []int{1}, Hi: []int{1, 1}, Pairs: []int{1, 1}},
		"task out of range":  {Shard: 1, Tasks: []int{10}, Lo: []int{1}, Hi: []int{1}, Pairs: []int{1}},
		"unsorted tasks":     {Shard: 1, Tasks: []int{2, 2}, Lo: []int{1, 1}, Hi: []int{1, 1}, Pairs: []int{1, 1}},
		"zero pairs":         {Shard: 1, Tasks: []int{0}, Lo: []int{0}, Hi: []int{0}, Pairs: []int{0}},
		"hi below lo":        {Shard: 1, Tasks: []int{0}, Lo: []int{2}, Hi: []int{1}, Pairs: []int{1}},
	} {
		if added, err := w.Add(bad); err == nil || added {
			t.Errorf("%s: Add = (%v, %v), want a validation error", name, added, err)
		}
	}
	if w.HaveCount() != 3 {
		t.Fatalf("HaveCount = %d after rejects, want 3", w.HaveCount())
	}

	wantRanges := []ShardRange{{Start: 0, End: 1}, {Start: 3, End: 5}}
	if got := w.HaveRanges(); len(got) != len(wantRanges) || got[0] != wantRanges[0] || got[1] != wantRanges[1] {
		t.Errorf("HaveRanges = %v, want %v", got, wantRanges)
	}
	if missing := w.Missing(); len(missing) != 1 || missing[0] != (ShardRange{Start: 1, End: 3}) {
		t.Errorf("Missing = %v, want [{1 3}]", missing)
	}
	if w.Complete() {
		t.Error("writer claims completeness with 2 shards missing")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if added, err := w.Add(part(1)); err == nil || added {
		t.Errorf("Add after Close = (%v, %v), want an error", added, err)
	}

	// Resume: the reopened writer knows exactly what landed, and
	// finishing the remaining shards completes it.
	w2, err := OpenCheckpointWriter(path, layout, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.HaveCount() != 3 || !w2.Have(0) || !w2.Have(3) || !w2.Have(4) {
		t.Fatalf("resumed writer has %d shards (%v), want the 3 written", w2.HaveCount(), w2.HaveRanges())
	}
	for _, s := range []int{1, 2} {
		if added, err := w2.Add(part(s)); err != nil || !added {
			t.Fatalf("Add(shard %d) on resumed writer = (%v, %v)", s, added, err)
		}
	}
	if !w2.Complete() {
		t.Error("writer not complete after all shards ingested")
	}
	// Resumed lists exactly what came from the file, in shard order —
	// not what was added since.
	if ps := w2.Resumed(); len(ps) != 3 || ps[0].Shard != 0 || ps[1].Shard != 3 || ps[2].Shard != 4 {
		t.Errorf("Resumed = %v, want shards [0 3 4]", ps)
	}

	// A foreign layout must not resume this file.
	foreign := *layout
	foreign.Fingerprint = "fedcba9876543210"
	if _, err := OpenCheckpointWriter(path, &foreign, true); err == nil {
		t.Error("foreign-fingerprint resume succeeded, want an error")
	}
}

// TestStoreDoesNotAliasPartial pins the commit contract RunShards relies
// on: the partial handed to commit is the worker's scratch, overwritten
// by its next shard, so the store must have folded and marshalled it by
// the time Add returns. The commit here scribbles over every array right
// after Add — a store that kept the pointer (as CheckpointWriter did
// while it retained partials for a later merge) would reduce garbage,
// and so would the file if the record were written lazily.
func TestStoreDoesNotAliasPartial(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	pl := mustPrepare(chainedGrid(g, IncrementalAuto), g)
	o := newOracle(&pl.gr, g)
	l := pl.Layout(5)
	path := filepath.Join(t.TempDir(), "alias.ckpt")
	store, err := OpenCheckpointWriter(path, l, false)
	if err != nil {
		t.Fatal(err)
	}
	err = pl.RunShards(context.Background(), l, store.Missing(), RunOptions{}, func(p *ShardPartial) error {
		if added, err := store.Add(p); err != nil || !added {
			t.Errorf("Add(shard %d) = (%v, %v)", p.Shard, added, err)
		}
		p.Shard = -1
		for i := range p.Tasks {
			p.Tasks[i], p.Lo[i], p.Hi[i], p.Pairs[i] = 0, 1<<40, 1<<41, 7
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Result(store)
	o.check(t, res, err)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenCheckpointWriter(path, l, true)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	res, err = pl.Result(reopened)
	o.check(t, res, err)
}
