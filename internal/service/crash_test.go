package service

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"sbgp"
	"sbgp/internal/dist"
)

// crashRunPoints are the run loop's crash points in the order a job
// passes them.
var crashRunPoints = []string{"picked", "geometry", "shard", "result", "terminal"}

// withCrashHook replaces crashPoint with hook until the test ends. The
// daemons a test opens under a hook must be closed before it returns.
func withCrashHook(t *testing.T, hook func(point string)) {
	t.Helper()
	prev := crashPoint
	crashPoint = hook
	t.Cleanup(func() { crashPoint = prev })
}

// copyTree copies the regular files under src to dst, keeping their
// relative paths and creating empty directories too.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// dirNames lists the entry names of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// crashImage runs spec to completion on a fresh daemon and returns a copy
// of its data directory taken the first time the run loop reached point:
// the image a daemon killed there leaves on disk. It also returns the
// job's ID and its shard count.
func crashImage(t *testing.T, spec *sbgp.JobSpec, point string) (image, id string, shards int) {
	t.Helper()
	dir, image := t.TempDir(), t.TempDir()
	var copyErr error
	copied := false
	withCrashHook(t, func(p string) {
		if p == point && !copied {
			copied = true
			copyErr = copyTree(dir, image)
		}
	})
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec, 0)
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	fin := waitFor(t, s, j.ID, terminal)
	s.Close() // the run loop has exited: the hook's writes are visible
	if fin.State != StateDone {
		t.Fatalf("uninterrupted job: state %s (error %q)", fin.State, fin.Error)
	}
	if !copied || copyErr != nil {
		t.Fatalf("crash point %q: reached %v, copy error %v", point, copied, copyErr)
	}
	return image, j.ID, fin.ShardsTotal
}

// TestCrashImagesFinishGolden kills the daemon at every crash point of
// the run loop, for a one-shard and a multi-shard job: a daemon opened
// on the image the kill leaves must finish the job done, with bytes
// equal to a one-shot run, exactly one record for it and no checkpoint
// left behind.
func TestCrashImagesFinishGolden(t *testing.T) {
	oneShard := smallSpec()
	oneShard.ShardSize = 4096
	for _, tc := range []struct {
		name   string
		spec   *sbgp.JobSpec
		shards func(int) bool
	}{
		{"one-shard", oneShard, func(n int) bool { return n == 1 }},
		{"multi-shard", smallSpec(), func(n int) bool { return n > 1 }},
	} {
		want := oneShotBytes(t, tc.spec)
		for _, point := range crashRunPoints {
			t.Run(tc.name+"/"+point, func(t *testing.T) {
				image, id, shards := crashImage(t, tc.spec, point)
				if !tc.shards(shards) {
					t.Fatalf("the %s spec has %d shards", tc.name, shards)
				}
				s, err := Open(image)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				fin := waitFor(t, s, id, terminal)
				if fin.State != StateDone {
					t.Fatalf("after a crash at %q: state %s (error %q)", point, fin.State, fin.Error)
				}
				got, err := os.ReadFile(s.ResultPath(id))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("after a crash at %q the result differs from the one-shot run", point)
				}
				if jobs := s.List(); len(jobs) != 1 || jobs[0].ID != id {
					t.Fatalf("after a crash at %q the daemon lists %d jobs, want only %s", point, len(jobs), id)
				}
				if names := dirNames(t, filepath.Join(image, "jobs")); !slices.Equal(names, []string{id + ".json"}) {
					t.Fatalf("after a crash at %q jobs/ holds %q, want one record for %s", point, names, id)
				}
				if names := dirNames(t, filepath.Join(image, "checkpoints")); len(names) != 0 {
					t.Fatalf("after a crash at %q checkpoints/ still holds %q", point, names)
				}
			})
		}
	}
}

// TestJobWritesRecordTwice counts a job's disk writes through the crash
// seam, local and distributed: the job record is written exactly twice,
// at submit and in the terminal state; a one-shard job never has a file
// under checkpoints/, and a multi-shard job has its checkpoint by its
// first durable shard.
func TestJobWritesRecordTwice(t *testing.T) {
	oneShard := smallSpec()
	oneShard.ShardSize = 4096
	for _, distributed := range []bool{false, true} {
		for _, tc := range []struct {
			name     string
			spec     *sbgp.JobSpec
			oneShard bool
		}{
			{"one-shard", oneShard, true},
			{"multi-shard", smallSpec(), false},
		} {
			name := tc.name + "/local"
			if distributed {
				name = tc.name + "/distributed"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var (
					mu       sync.Mutex // the distributed sink runs on the coordinator's goroutines
					records  int
					ckptSeen []string // run-loop points that found a checkpoint
					atShard  = -1     // checkpoint files at the first durable shard
				)
				withCrashHook(t, func(p string) {
					mu.Lock()
					defer mu.Unlock()
					if p == "record" {
						records++
						return
					}
					entries, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
					if err != nil {
						t.Error(err)
						return
					}
					if len(entries) > 0 {
						ckptSeen = append(ckptSeen, p)
					}
					if p == "shard" && atShard < 0 {
						atShard = len(entries)
					}
				})
				var opts Options
				if distributed {
					coord := dist.NewCoordinator(dist.Options{LeaseShards: 4, LeaseTTL: 5 * time.Second})
					opts.Distributor = coord
					ts := httptest.NewServer(coord.Handler())
					defer ts.Close()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					for i := 0; i < 2; i++ {
						w := &dist.Worker{Base: ts.URL, ID: fmt.Sprintf("count-w%d", i), Poll: 10 * time.Millisecond}
						go w.Run(ctx)
					}
				}
				s, err := OpenOptions(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				j, err := s.Submit(tc.spec, 0)
				if err != nil {
					s.Close()
					t.Fatal(err)
				}
				fin := waitFor(t, s, j.ID, terminal)
				s.Close() // the run loop has exited: the hook's counts are final
				if fin.State != StateDone {
					t.Fatalf("state %s (error %q)", fin.State, fin.Error)
				}
				if tc.oneShard != (fin.ShardsTotal == 1) {
					t.Fatalf("the %s spec has %d shards", tc.name, fin.ShardsTotal)
				}
				got, err := os.ReadFile(s.ResultPath(j.ID))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, oneShotBytes(t, tc.spec)) {
					t.Fatal("result differs from the one-shot run")
				}
				if records != 2 {
					t.Errorf("the job record was written %d times, want 2 (submit and terminal)", records)
				}
				if tc.oneShard && len(ckptSeen) > 0 {
					t.Errorf("a one-shard job had a checkpoint at %q", ckptSeen)
				}
				if !tc.oneShard && atShard != 1 {
					t.Errorf("checkpoints/ held %d files at the first durable shard, want the job's checkpoint", atShard)
				}
			})
		}
	}
}
