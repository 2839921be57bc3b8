package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sbgp/internal/core"
	"sbgp/internal/topogen"
)

// resultJSON serializes a result, failing the test on error.
func resultJSON(t *testing.T, res *Result, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cutCheckpoint rewrites a checkpoint file to its header plus the first
// keep shard records — what a run killed after keep commits leaves.
func cutCheckpoint(t *testing.T, path string, keep int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < keep+2 {
		t.Fatalf("checkpoint has %d lines, cannot keep %d records", len(lines), keep)
	}
	if err := os.WriteFile(path, bytes.Join(lines[:keep+1], nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOnePlanServesEveryDriver is the collapse's contract in one table:
// for each golden grid a single prepared Plan serves, in turn, Evaluate
// (twice — the plan keeps nothing between runs), RunShards by hand into
// a memory-only store at a small shard size, two disjoint worker
// ranges merged, and a durable store cut back to its first half and
// resumed — every one byte-identical to the golden file — and refuses a
// layout minted for a different grid.
func TestOnePlanServesEveryDriver(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	ctx := context.Background()
	for _, tc := range []struct {
		name, file string
		grid       func() *Grid
	}{
		{"one-hop", "golden_onehop.json", func() *Grid { return goldenGrid(g, 4, nil) }},
		{"none", "golden_none.json", func() *Grid { return goldenGrid(g, 4, core.NoAttack{}) }},
		{"pad-3", "golden_pad3.json", func() *Grid { return goldenGrid(g, 4, core.PathPadding{Hops: 3}) }},
		{"origin-spoof", "golden_originspoof.json", func() *Grid { return goldenGrid(g, 4, core.OriginSpoof{}) }},
		{"nested", "golden_nested.json", func() *Grid { return nestedGrid(g, 4, IncrementalAuto) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			pl := mustPrepare(tc.grid(), g)

			for run := 0; run < 2; run++ {
				res, err := pl.Evaluate(ctx)
				if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
					t.Errorf("Evaluate run %d diverges from %s", run, tc.file)
				}
			}

			l := pl.Layout(7)
			store, err := OpenCheckpointWriter("", l, false)
			if err != nil {
				t.Fatal(err)
			}
			err = pl.RunShards(ctx, l, store.Missing(), RunOptions{}, func(p *ShardPartial) error {
				_, err := store.Add(p)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := pl.Result(store)
			if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
				t.Errorf("RunShards into a memory store diverges from %s", tc.file)
			}

			units := pl.Units(l)
			mid := units[len(units)/2].Start
			var partials []*ShardPartial
			for _, r := range []ShardRange{{Start: mid, End: l.Shards}, {Start: 0, End: mid}} {
				err := pl.EvaluateShardRange(ctx, l, r, RangeOptions{
					Sink: func(p *ShardPartial) error { partials = append(partials, p); return nil },
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			res, err = pl.Merge(l, partials)
			if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
				t.Errorf("two ranges + Merge diverge from %s", tc.file)
			}

			ckpt := filepath.Join(t.TempDir(), "half.ckpt")
			opts := ShardOptions{ShardSize: 7, Checkpoint: ckpt}
			res, err = pl.EvaluateSharded(ctx, opts, RunOptions{})
			if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
				t.Errorf("durable EvaluateSharded diverges from %s", tc.file)
			}
			cutCheckpoint(t, ckpt, l.Shards/2)
			fresh := 0
			opts.Resume = true
			opts.Sink = func(p *ShardPartial) error {
				if p.Shard < 0 || p.Shard >= l.Shards {
					t.Errorf("sink saw shard %d outside [0,%d)", p.Shard, l.Shards)
				}
				fresh++
				return nil
			}
			res, err = pl.EvaluateSharded(ctx, opts, RunOptions{})
			if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
				t.Errorf("resume from the first half diverges from %s", tc.file)
			}
			if fresh != l.Shards {
				t.Errorf("resuming sink observed %d shards, want every one of %d exactly once", fresh, l.Shards)
			}

			// A layout minted for another grid — same axes, one destination
			// fewer — is refused by every entry point that takes one.
			fgr := tc.grid()
			fgr.Destinations = fgr.Destinations[1:]
			foreign := mustPrepare(fgr, g).Layout(7)
			for what, err := range map[string]error{
				"RunShards":          pl.RunShards(ctx, foreign, []ShardRange{{End: 1}}, RunOptions{}, func(*ShardPartial) error { return nil }),
				"EvaluateShardRange": pl.EvaluateShardRange(ctx, foreign, ShardRange{End: 1}, RangeOptions{}),
			} {
				if err == nil || !strings.Contains(err.Error(), "fingerprint") {
					t.Errorf("%s under a foreign layout: err = %v, want a fingerprint mismatch", what, err)
				}
			}
			if _, err := pl.Merge(foreign, nil); err == nil || !strings.Contains(err.Error(), "fingerprint") {
				t.Errorf("Merge under a foreign layout: err = %v, want a fingerprint mismatch", err)
			}
		})
	}
}

// TestParentCheckpointCompat is the cross-version contract of the store
// rewrite. testdata/parent_pr11_nested_s64.ckpt was written by the
// commit before CheckpointWriter absorbed checkpointFile (the nested
// golden grid, chain-major, workers=1, shard size 64): it must resume
// here — whole, or cut to its first half, adopting the file's shard size
// — to the golden bytes, and the same run under this code must write the
// same bytes, header and records alike. With two workers, whose strips
// slice the 64-cell shards, the resumes land on the same bytes and the
// fresh file holds the same lines (record order is scheduling's).
func TestParentCheckpointCompat(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) { testParentCheckpointCompat(t, 1) })
	t.Run("workers=2", func(t *testing.T) { testParentCheckpointCompat(t, 2) })
}

func testParentCheckpointCompat(t *testing.T, workers int) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	ctx := context.Background()
	want, err := os.ReadFile(filepath.Join("testdata", "golden_nested.json"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_pr11_nested_s64.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	pl := mustPrepare(nestedGrid(g, workers, IncrementalAuto), g)
	l := pl.Layout(64)
	shards := l.Shards
	if units := pl.Units(l); workers > 1 && len(pl.strips(nil, units, l, workers)) == len(units) {
		t.Fatal("two workers slice no unit of this layout: the case would test nothing new")
	}

	for _, keep := range []int{shards, shards / 2} {
		ckpt := filepath.Join(t.TempDir(), "parent.ckpt")
		if err := os.WriteFile(ckpt, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		cutCheckpoint(t, ckpt, keep)
		var stats ShardStats
		// No ShardSize: the resume must adopt the file's 64, not cut the
		// grid at DefaultShardSize.
		res, err := pl.EvaluateSharded(ctx, ShardOptions{Checkpoint: ckpt, Resume: true}, RunOptions{Stats: &stats})
		if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
			t.Errorf("parent checkpoint with %d of %d records resumes to different bytes", keep, shards)
		}
		if keep == shards && stats.Units != 0 {
			t.Errorf("complete parent checkpoint re-evaluated %d units, want 0", stats.Units)
		}
	}

	ckpt := filepath.Join(t.TempDir(), "fresh.ckpt")
	if _, err := pl.EvaluateSharded(ctx, ShardOptions{ShardSize: 64, Checkpoint: ckpt}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if workers == 1 {
		if got, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(got, fixture) {
			t.Errorf("checkpoint written by this code differs from the parent's for the same grid (err %v)", err)
		}
		return
	}
	parent := filepath.Join(t.TempDir(), "parent.ckpt")
	if err := os.WriteFile(parent, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	wantHeader, wantRecords := checkpointLines(t, parent)
	if header, records := checkpointLines(t, ckpt); header != wantHeader || !slices.Equal(records, wantRecords) {
		t.Error("checkpoint written with two workers does not hold the parent file's lines")
	}
}
