package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sbgp/internal/asgraph"
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

// TestParentCheckpointCompat is the cross-version contract of the
// checkpoint store. A checkpoint written under a layout this code no
// longer plans must be refused loudly, whole or cut to its first half: a
// fingerprint mismatch, no unit evaluated, the file byte-unchanged. Two
// such files are kept:
//   - testdata/parent_pr11_nested_s64.ckpt, the nested golden grid
//     (chain-major, workers=1, shard size 64) under the fingerprint that
//     tagged a grow-only cover without hashing its walks;
//   - testdata/headline_forest_s16.ckpt, the headline-shaped grid at
//     shard size 16 under the forest walks [baseline] [t1t2 t1t2cp t2]
//     [nonstubs] (fingerprint 09ecb788b5e28e0a), whose Tier 1 removal
//     the cost model no longer plans.
//
// A file this code writes under one schedule is refused the same way
// under another schedule of the same grid — the identity order against
// a chain-major walk and against a forest — since partials merged across
// layouts would double-count some cells and drop others.
//
// A file this code writes for the nested golden grid must resume, whole
// or halved and adopting the file's shard size, to the golden bytes: at
// one worker, and at two, whose strips slice the 64-cell shards and
// write the same lines in another order.
func TestParentCheckpointCompat(t *testing.T) {
	g17, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	g3, meta3 := topogen.MustGenerate(topogen.Params{N: 400, Seed: 3})
	g23, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	g31, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 31})
	fixture := func(file string) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			data, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	}
	// written is the checkpoint a fresh run of gr writes at shard size 7.
	written := func(gr *Grid, g *asgraph.Graph) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			ckpt := filepath.Join(t.TempDir(), "written.ckpt")
			if _, err := evaluateSharded(context.Background(), gr, g, ShardOptions{ShardSize: 7, Checkpoint: ckpt}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	}
	for _, tc := range []struct {
		name string
		data func(*testing.T) []byte
		pl   *Plan // the plan that must refuse the file
		size int   // the file's shard size
	}{
		{"parent_pr11_nested_s64.ckpt", fixture("parent_pr11_nested_s64.ckpt"), mustPrepare(nestedGrid(g17, 1, IncrementalAuto), g17), 64},
		{"headline_forest_s16.ckpt", fixture("headline_forest_s16.ckpt"), mustPrepare(headlineShapedGrid(g3, meta3), g3), 16},
		{"identity under chain-major", written(chainedGrid(g23, IncrementalOff), g23), mustPrepare(chainedGrid(g23, IncrementalAuto), g23), 7},
		{"chain-major under identity", written(chainedGrid(g23, IncrementalAuto), g23), mustPrepare(chainedGrid(g23, IncrementalOff), g23), 7},
		{"identity under forest", written(forestGrid(g31, 4, IncrementalOff), g31), mustPrepare(forestGrid(g31, 4, IncrementalAuto), g31), 7},
		{"forest under identity", written(forestGrid(g31, 4, IncrementalAuto), g31), mustPrepare(forestGrid(g31, 4, IncrementalOff), g31), 7},
	} {
		t.Run(tc.name, func(t *testing.T) { testCheckpointRefused(t, tc.pl, tc.data(t), tc.pl.Layout(tc.size).Shards) })
	}
	t.Run("workers=1", func(t *testing.T) { testParentCheckpointCompat(t, 1) })
	t.Run("workers=2", func(t *testing.T) { testParentCheckpointCompat(t, 2) })
}

// testCheckpointRefused resumes pl from a checkpoint of shards records,
// whole and cut to half, and wants the loud refusal.
func testCheckpointRefused(t *testing.T, pl *Plan, fixture []byte, shards int) {
	for _, keep := range []int{shards, shards / 2} {
		ckpt := filepath.Join(t.TempDir(), "refused.ckpt")
		if err := os.WriteFile(ckpt, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		cutCheckpoint(t, ckpt, keep)
		before, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		var stats ShardStats
		res, err := pl.EvaluateSharded(context.Background(), ShardOptions{Checkpoint: ckpt, Resume: true}, RunOptions{Stats: &stats})
		if err == nil || res != nil {
			t.Fatalf("checkpoint with %d of %d records resumed under this layout (err %v)", keep, shards, err)
		}
		if !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("cross-layout resume failed with %v, want a fingerprint mismatch", err)
		}
		if stats.Units != 0 {
			t.Errorf("refused resume evaluated %d units", stats.Units)
		}
		if after, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(after, before) {
			t.Errorf("refused resume changed the checkpoint file (err %v)", err)
		}
	}
}

func testParentCheckpointCompat(t *testing.T, workers int) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	ctx := context.Background()
	want, err := os.ReadFile(filepath.Join("testdata", "golden_nested.json"))
	if err != nil {
		t.Fatal(err)
	}
	pl := mustPrepare(nestedGrid(g, workers, IncrementalAuto), g)
	l := pl.Layout(64)
	shards := l.Shards
	if units := pl.Units(l); workers > 1 && len(pl.strips(nil, units, l, workers)) == len(units) {
		t.Fatal("two workers slice no unit of this layout: the case would test nothing new")
	}
	fresh := filepath.Join(t.TempDir(), "fresh.ckpt")
	res, err := pl.EvaluateSharded(ctx, ShardOptions{ShardSize: 64, Checkpoint: fresh}, RunOptions{})
	if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
		t.Fatal("fresh checkpointed run differs from the golden bytes")
	}
	written, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}

	for _, keep := range []int{shards, shards / 2} {
		ckpt := filepath.Join(t.TempDir(), "resume.ckpt")
		if err := os.WriteFile(ckpt, written, 0o644); err != nil {
			t.Fatal(err)
		}
		cutCheckpoint(t, ckpt, keep)
		var stats ShardStats
		// No ShardSize: the resume must adopt the file's 64, not cut the
		// grid at DefaultShardSize.
		res, err := pl.EvaluateSharded(ctx, ShardOptions{Checkpoint: ckpt, Resume: true}, RunOptions{Stats: &stats})
		if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
			t.Errorf("checkpoint with %d of %d records resumes to different bytes", keep, shards)
		}
		if keep == shards && stats.Units != 0 {
			t.Errorf("complete checkpoint re-evaluated %d units, want 0", stats.Units)
		}
	}

	if workers == 1 {
		return
	}
	one := filepath.Join(t.TempDir(), "one.ckpt")
	if _, err := mustPrepare(nestedGrid(g, 1, IncrementalAuto), g).EvaluateSharded(ctx, ShardOptions{ShardSize: 64, Checkpoint: one}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	wantHeader, wantRecords := checkpointLines(t, one)
	if header, records := checkpointLines(t, fresh); header != wantHeader || !slices.Equal(records, wantRecords) {
		t.Error("checkpoint written with two workers does not hold the one-worker file's lines")
	}
}

// TestCutWalksBindTheFingerprint: the fingerprint hashes a chained
// layout's walks, since the memberships alone do not determine them —
// the planner's cost model reads the graph. Two layouts of the same
// memberships whose walks differ — in order, or cut at another step —
// must get different fingerprints; otherwise a checkpoint written under
// one would resume under the other and merge partials of another cell
// order.
func TestCutWalksBindTheFingerprint(t *testing.T) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 400, Seed: 3})
	pl := mustPrepare(headlineShapedGrid(g, meta), g)
	chains := pl.sched.plan.chains
	if pl.sched.identity() || len(chains) < 2 || len(chains[len(chains)-1]) < 2 {
		t.Fatalf("the headline-shaped grid plans %v: want at least two walks, the last with a step", chainNames(pl.ax.deps, pl.sched.plan))
	}
	last := chains[len(chains)-1]
	for name, walks := range map[string][][]chainStep{
		"reordered": append([][]chainStep{last}, chains[:len(chains)-1]...),
		"cut":       append(slices.Clone(chains[:len(chains)-1]), last[:1], last[1:]),
	} {
		other := scheduleOf(pl.ax, &chainPlan{chains: walks})
		if other.identity() {
			t.Fatalf("%s: the other layout is the identity order", name)
		}
		if fp := pl.gr.fingerprint(g, pl.ax, other); fp == pl.fp {
			t.Errorf("%s walks share fingerprint %s with the planned ones", name, fp)
		}
	}
}
