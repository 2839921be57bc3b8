package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"sbgp/internal/topogen"
)

// fault breaks the durable store's record of one shard: its write stops
// after tear bytes and returns writeErr, or (writeErr nil) the write
// lands and the next fsync runs onSync, then returns syncErr. The store
// calls Write and Sync under its mutex, so the fields need no lock of
// their own.
type fault struct {
	shard    int
	tear     int
	writeErr error
	syncErr  error
	onSync   func()

	record []byte // the faulted shard's full line, once written
	armed  bool   // the faulted record's fsync is the next one
	fired  bool   // the fault was injected
	after  int    // writes attempted after it was
	syncs  int    // fsyncs issued on the file
}

// faultFile is a store file with a fault on it.
type faultFile struct {
	storeFile
	f *fault
}

func (ff *faultFile) Write(b []byte) (int, error) {
	f := ff.f
	if f.fired {
		f.after++
	}
	if _, p, err := decodeCheckpointLine(bytes.TrimSuffix(b, []byte("\n"))); err != nil || p == nil || p.Shard != f.shard {
		return ff.storeFile.Write(b)
	}
	f.record = slices.Clone(b)
	if f.writeErr != nil {
		f.fired = true
		n, _ := ff.storeFile.Write(b[:min(f.tear, len(b))])
		return n, f.writeErr
	}
	f.armed = true
	return ff.storeFile.Write(b)
}

func (ff *faultFile) Sync() error {
	f := ff.f
	f.syncs++
	if !f.armed {
		return ff.storeFile.Sync()
	}
	f.armed = false
	if f.onSync != nil {
		f.onSync()
	}
	if f.syncErr != nil {
		f.fired = true
		return f.syncErr
	}
	return ff.storeFile.Sync()
}

// withFault runs fn with every store file opened meanwhile carrying f.
func withFault(f *fault, fn func()) {
	open := openStoreFile
	defer func() { openStoreFile = open }()
	openStoreFile = func(path string, flag int) (storeFile, error) {
		sf, err := open(path, flag)
		if err != nil {
			return nil, err
		}
		return &faultFile{storeFile: sf, f: f}, nil
	}
	fn()
}

// wholeRecords counts the shard records wholly on disk: the
// '\n'-terminated lines after the header.
func wholeRecords(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n")) - 1
}

// TestStoreFaultsResumeToGolden is "byte-identical or refuse loudly" for
// the durable store, on the one-hop golden grid at two workers: a record
// write torn at every byte offset, an fsync error and an ENOSPC short
// write each fail the run with the injected error, before the sink sees
// the broken shard and with no record written after it; a resume then
// counts exactly the records wholly on disk and lands on the golden
// bytes. A cancel that lands while a record's fsync is in flight leaves
// the checkpoint holding exactly the shards the sink saw. A batch whose
// appends land but whose one fsync fails is refused whole, and the
// refusal is sticky.
func TestStoreFaultsResumeToGolden(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	want, err := os.ReadFile(filepath.Join("testdata", "golden_onehop.json"))
	if err != nil {
		t.Fatal(err)
	}
	pl := mustPrepare(goldenGrid(g, 2, nil), g)
	const size = 16
	l := pl.Layout(size)
	shard := l.Shards / 2

	// faulted runs a fresh durable evaluation under f and returns the
	// shards its sink saw, the checkpoint's path and the run's error.
	faulted := func(t *testing.T, ctx context.Context, f *fault) (map[int]bool, string, error) {
		path := filepath.Join(t.TempDir(), "fault.ckpt")
		seen := map[int]bool{}
		var res *Result
		var err error
		withFault(f, func() {
			res, err = pl.EvaluateSharded(ctx, ShardOptions{ShardSize: size, Checkpoint: path, Sink: func(p *ShardPartial) error {
				seen[p.Shard] = true
				return nil
			}}, RunOptions{})
		})
		if res != nil {
			t.Errorf("faulted run returned a result")
		}
		return seen, path, err
	}
	// resume checks that the file resumes to its whole records and then
	// to the golden bytes.
	resume := func(t *testing.T, path string) {
		t.Helper()
		whole := wholeRecords(t, path)
		w, err := OpenCheckpointWriter(path, l, true)
		if err != nil {
			t.Fatal(err)
		}
		if w.HaveCount() != whole {
			t.Errorf("resumed store holds %d shards, want the %d records wholly on disk", w.HaveCount(), whole)
		}
		w.Close()
		res, err := pl.EvaluateSharded(context.Background(), ShardOptions{ShardSize: size, Checkpoint: path, Resume: true}, RunOptions{})
		if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
			t.Error("resume diverges from golden_onehop.json")
		}
	}
	// refused checks the run-side expectations of a fault at shard.
	refused := func(t *testing.T, f *fault, err, injected error, seen map[int]bool) {
		t.Helper()
		if !f.fired {
			t.Fatalf("shard %d's record was never faulted", shard)
		}
		if !errors.Is(err, injected) {
			t.Errorf("faulted run returned %v, want the injected %v", err, injected)
		}
		if seen[shard] {
			t.Errorf("sink saw shard %d, whose record failed", shard)
		}
		if f.after != 0 {
			t.Errorf("%d records written after the failure, want none", f.after)
		}
	}

	t.Run("torn write at every offset", func(t *testing.T) {
		injected := errors.New("injected torn write")
		for b := 0; ; b++ {
			f := &fault{shard: shard, tear: b, writeErr: injected}
			seen, path, err := faulted(t, context.Background(), f)
			refused(t, f, err, injected, seen)
			// The sink saw every shard settled before the torn one, which
			// is every whole record but (if it landed whole) the torn one.
			whole := wholeRecords(t, path)
			if b >= len(f.record) {
				whole--
			}
			if len(seen) != whole {
				t.Errorf("b=%d: sink saw %d shards, checkpoint holds %d whole records before the torn one", b, len(seen), whole)
			}
			resume(t, path)
			if b >= len(f.record) || t.Failed() {
				t.Logf("shard %d's %d-byte record torn at offsets 0..%d", shard, len(f.record), b)
				break
			}
			if raceEnabled && b > 2 && b < len(f.record)-3 {
				// Every offset in the plain run; the ends and the middle
				// under the race detector.
				b = len(f.record) - 4
			}
		}
	})

	t.Run("fsync error", func(t *testing.T) {
		injected := errors.New("injected fsync failure")
		f := &fault{shard: shard, tear: -1, syncErr: injected}
		seen, path, err := faulted(t, context.Background(), f)
		refused(t, f, err, injected, seen)
		resume(t, path)
	})

	t.Run("ENOSPC short write", func(t *testing.T) {
		f := &fault{shard: shard, tear: 40, writeErr: &os.PathError{Op: "write", Path: "fault.ckpt", Err: syscall.ENOSPC}}
		seen, path, err := faulted(t, context.Background(), f)
		refused(t, f, err, syscall.ENOSPC, seen)
		resume(t, path)
	})

	t.Run("batch whose one fsync fails", func(t *testing.T) {
		var parts []*ShardPartial
		err := pl.EvaluateShardRange(context.Background(), l, ShardRange{Start: 0, End: l.Shards}, RangeOptions{Sink: func(p *ShardPartial) error {
			parts = append(parts, p)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(parts, func(a, b *ShardPartial) int { return a.Shard - b.Shard })
		injected := errors.New("injected batch fsync failure")
		f := &fault{shard: shard, tear: -1, syncErr: injected}
		path := filepath.Join(t.TempDir(), "batch.ckpt")
		var w *CheckpointWriter
		withFault(f, func() {
			w, err = OpenCheckpointWriter(path, l, false)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		first, torn, rest := parts[:shard-2], parts[shard-2:shard+3], parts[shard+3:]
		if added, err := w.AddBatch(first); err != nil || len(added) != len(first) {
			t.Fatalf("AddBatch(first) = (%d partials, %v), want all %d", len(added), err, len(first))
		}
		syncs := f.syncs
		// A caller sinks and acks only what AddBatch returns, so a
		// refused batch reaches neither.
		added, err := w.AddBatch(torn)
		if !f.fired {
			t.Fatalf("shard %d's record was never faulted", shard)
		}
		if len(added) != 0 || !errors.Is(err, injected) {
			t.Errorf("AddBatch over the failed fsync = (%d partials, %v), want none and the injected error", len(added), err)
		}
		if n := f.syncs - syncs; n != 1 {
			t.Errorf("the batch took %d fsyncs, want one", n)
		}
		if added, err := w.AddBatch(rest); len(added) != 0 || !errors.Is(err, injected) {
			t.Errorf("AddBatch after the failure = (%d partials, %v), want none and the injected error", len(added), err)
		}
		if ok, err := w.Add(rest[0]); ok || !errors.Is(err, injected) {
			t.Errorf("Add after the failure = (%v, %v), want the injected error", ok, err)
		}
		if f.after != 0 {
			t.Errorf("%d records written after the failure, want none", f.after)
		}
		if whole := wholeRecords(t, path); whole != len(first)+len(torn) {
			t.Errorf("checkpoint holds %d whole records, want the %d the two batches appended", whole, len(first)+len(torn))
		}
		resume(t, path)
	})

	t.Run("cancel while an fsync is in flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		f := &fault{shard: shard, tear: -1, onSync: cancel}
		seen, path, err := faulted(t, ctx, f)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
		if !seen[shard] {
			t.Errorf("sink never saw shard %d, whose record was written before the cancel", shard)
		}
		if whole := wholeRecords(t, path); len(seen) != whole {
			t.Errorf("sink saw %d shards, checkpoint holds %d records", len(seen), whole)
		}
		resume(t, path)
	})
}

// TestStoreRefusesAfterFault: once a record's write or fsync has failed,
// the store refuses every later Add with that error and writes nothing
// more, because what reached the disk is unknown.
func TestStoreRefusesAfterFault(t *testing.T) {
	layout := &Layout{Fingerprint: "0123456789abcdef", Cells: 40, Tasks: 10, ShardSize: 8, Shards: 5}
	part := func(shard int) *ShardPartial {
		return &ShardPartial{Shard: shard, Tasks: []int{shard}, Lo: []int{1}, Hi: []int{2}, Pairs: []int{1}}
	}
	injected := errors.New("injected")
	for name, f := range map[string]*fault{
		"torn write":  {shard: 1, tear: 10, writeErr: injected},
		"fsync error": {shard: 1, tear: -1, syncErr: injected},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "refuse.ckpt")
			var w *CheckpointWriter
			withFault(f, func() {
				var err error
				if w, err = OpenCheckpointWriter(path, layout, false); err != nil {
					t.Fatal(err)
				}
			})
			defer w.Close()
			if added, err := w.Add(part(0)); err != nil || !added {
				t.Fatalf("Add(shard 0) = (%v, %v)", added, err)
			}
			if added, err := w.Add(part(1)); added || !errors.Is(err, injected) {
				t.Fatalf("faulted Add(shard 1) = (%v, %v), want the injected error", added, err)
			}
			for _, s := range []int{2, 3, 1} {
				if added, err := w.Add(part(s)); added || !errors.Is(err, injected) {
					t.Errorf("Add(shard %d) after the fault = (%v, %v), want the injected error", s, added, err)
				}
			}
			if f.after != 0 {
				t.Errorf("%d records written after the fault, want none", f.after)
			}
		})
	}
}
