package sweep

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sbgp/internal/topogen"
)

// TestPlanShardsUnits pins the Layout/Units planning contract: the layout geometry
// is self-consistent, the units tile the shard space exactly, every
// unit boundary is handoff-free (a lease cut there splits no chain),
// and every boundary interior to a unit is not (cutting there would).
func TestPlanShardsUnits(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	for _, size := range []int{1, 3, 7} {
		pl := mustPrepare(chainedGrid(g, IncrementalAuto), g)
		l := pl.Layout(size)
		units, ax, sched := pl.Units(l), pl.ax, pl.sched
		if l.Cells != ax.cells || l.Tasks != ax.tasks || l.ShardSize != size || l.Shards != numShards(ax.cells, size) {
			t.Fatalf("size %d: layout %+v inconsistent with grid (cells=%d tasks=%d)", size, l, ax.cells, ax.tasks)
		}
		next := 0
		for _, u := range units {
			if u.Start != next || u.End <= u.Start {
				t.Fatalf("size %d: unit %+v does not continue tiling at %d", size, u, next)
			}
			if !sched.handoffFree(u.Start * size) {
				t.Errorf("size %d: unit boundary at shard %d cuts a chain", size, u.Start)
			}
			for s := u.Start + 1; s < u.End; s++ {
				if sched.handoffFree(s * size) {
					t.Errorf("size %d: interior boundary at shard %d is handoff-free (unit should have split)", size, s)
				}
			}
			next = u.End
		}
		if next != l.Shards {
			t.Fatalf("size %d: units end at %d, want %d", size, next, l.Shards)
		}
	}
}

// TestShardRangeMergeEquivalence is the distributed split in
// miniature: three disjoint worker ranges evaluated independently
// (each with its own engine state) and merged must reproduce the
// single-box evaluation byte for byte, with zero handoff misses inside
// each range.
func TestShardRangeMergeEquivalence(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	var want bytes.Buffer
	if err := mustEvaluate(chainedGrid(g, IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{2, 5} {
		pl := mustPrepare(chainedGrid(g, IncrementalAuto), g)
		l := pl.Layout(size)
		units := pl.Units(l)
		if len(units) < 3 {
			t.Fatalf("size %d: only %d units, test wants ≥3 worker ranges", size, len(units))
		}
		// Cut the unit list into three contiguous worker ranges on unit
		// boundaries, like a coordinator leasing thirds of the grid.
		cuts := []int{0, len(units) / 3, 2 * len(units) / 3, len(units)}
		var partials []*ShardPartial
		for w := 0; w < 3; w++ {
			r := ShardRange{Start: units[cuts[w]].Start, End: units[cuts[w+1]-1].End}
			// Each "worker" prepares its own plan: no shared state, as
			// across machines.
			wpl := mustPrepare(chainedGrid(g, IncrementalAuto), g)
			var stats ShardStats
			err := wpl.EvaluateShardRange(context.Background(), l, r, RangeOptions{
				Sink: func(p *ShardPartial) error {
					partials = append(partials, p)
					return nil
				},
				Stats: &stats,
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.HandoffMisses != 0 {
				t.Errorf("size %d worker %d: %d handoff misses inside a leased range", size, w, stats.HandoffMisses)
			}
		}
		res, err := pl.Merge(l, partials)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := res.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("size %d: 3-worker range evaluation diverges from flat evaluation", size)
		}
	}
}

// TestEvaluateShardRangeForeignLayout: a layout minted by a different
// grid (here a different-sized topology — the fingerprint binds N plus
// every axis membership; the topology's edge set itself is bound by the
// job spec that names it, not the fingerprint) must be refused with a
// fingerprint mismatch, not evaluated into meaningless shard indices;
// and malformed ranges are rejected.
func TestEvaluateShardRangeForeignLayout(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	other, _ := topogen.MustGenerate(topogen.Params{N: 210, Seed: 29})
	pl := mustPrepare(chainedGrid(g, IncrementalAuto), g)
	foreign := mustPrepare(chainedGrid(other, IncrementalAuto), other).Layout(5)
	err := pl.EvaluateShardRange(context.Background(), foreign, ShardRange{Start: 0, End: 1}, RangeOptions{})
	if err == nil {
		t.Fatal("foreign layout evaluated without error")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("foreign layout failed with %v, want a fingerprint mismatch", err)
	}
	if _, err := pl.Merge(foreign, nil); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("Merge accepted a foreign layout (err %v)", err)
	}

	l := pl.Layout(5)
	for _, r := range []ShardRange{{Start: -1, End: 1}, {Start: 0, End: l.Shards + 1}, {Start: 2, End: 2}, {Start: 0, End: 1 << 40}} {
		if err := pl.EvaluateShardRange(context.Background(), l, r, RangeOptions{}); err == nil {
			t.Errorf("range %+v accepted, want an error", r)
		}
	}
}

// TestMergePartialsErrors: duplicates and gaps are loud errors — the
// coordinator deduplicates by shard index before merging, and a merge
// over an incomplete set would silently undercount.
func TestMergePartialsErrors(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	pl := mustPrepare(chainedGrid(g, IncrementalAuto), g)
	l := pl.Layout(5)
	var partials []*ShardPartial
	err := pl.EvaluateShardRange(context.Background(), l, ShardRange{Start: 0, End: l.Shards}, RangeOptions{
		Sink: func(p *ShardPartial) error { partials = append(partials, p); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Merge(l, partials[:len(partials)-1]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("merge of incomplete set: err = %v, want missing-shard error", err)
	}
	if _, err := pl.Merge(l, append(partials, partials[0])); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("merge with duplicate: err = %v, want duplicate error", err)
	}
}

// TestCheckpointWriterResumeInterop proves the coordinator's writer and
// the single-box evaluator speak the same on-disk dialect: shard
// partials evaluated via EvaluateShardRange and ingested through a
// CheckpointWriter form a checkpoint that EvaluateSharded resumes,
// finishing only the missing shards and landing on the flat bytes.
func TestCheckpointWriterResumeInterop(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	var want bytes.Buffer
	if err := mustEvaluate(chainedGrid(g, IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	pl := mustPrepare(chainedGrid(g, IncrementalAuto), g)
	const size = 5
	l := pl.Layout(size)
	units := pl.Units(l)
	path := filepath.Join(t.TempDir(), "interop.ckpt")
	w, err := OpenCheckpointWriter(path, l, false)
	if err != nil {
		t.Fatal(err)
	}
	// "Remote" evaluation of the first half of the units, ingested
	// through the writer.
	half := ShardRange{Start: 0, End: units[len(units)/2].End}
	err = pl.EvaluateShardRange(context.Background(), l, half, RangeOptions{
		Sink: func(p *ShardPartial) error {
			if added, err := w.Add(p); err != nil || !added {
				t.Errorf("ingest shard %d = (%v, %v)", p.Shard, added, err)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The single-box evaluator resumes the writer's file: only the
	// missing shards run.
	fresh := 0
	res, err := pl.EvaluateSharded(context.Background(), ShardOptions{
		ShardSize:  size,
		Checkpoint: path,
		Resume:     true,
		Sink: func(p *ShardPartial) error {
			if p.Shard >= half.End {
				fresh++
			}
			return nil
		},
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if wantFresh := l.Shards - half.Len(); fresh != wantFresh {
		t.Errorf("resume evaluated %d fresh shards, want %d", fresh, wantFresh)
	}
	var got bytes.Buffer
	if err := res.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("writer-fed resume diverges from flat evaluation")
	}
}

// TestPlanConcurrentEvaluation: a Plan is immutable after Prepare, so one
// Plan serves every entry point from several goroutines at once — two
// plain Evaluates, a finely sharded evaluation on a caller pool, and a
// range evaluation merged by hand — and all four land on the same bytes.
// Run under -race this is the proof that no entry point writes the Plan.
func TestPlanConcurrentEvaluation(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	pl := mustPrepare(chainedGrid(g, IncrementalAuto), g)
	ctx := context.Background()
	l := pl.Layout(5)
	evals := []func() (*Result, error){
		func() (*Result, error) { return pl.Evaluate(ctx) },
		func() (*Result, error) { return pl.Evaluate(ctx) },
		func() (*Result, error) {
			return pl.EvaluateSharded(ctx, ShardOptions{ShardSize: 7}, RunOptions{Pool: NewEnginePool()})
		},
		func() (*Result, error) {
			var partials []*ShardPartial
			err := pl.EvaluateShardRange(ctx, l, ShardRange{End: l.Shards}, RangeOptions{
				Sink: func(p *ShardPartial) error { partials = append(partials, p); return nil },
			})
			if err != nil {
				return nil, err
			}
			return pl.Merge(l, partials)
		},
	}
	got := make([][]byte, len(evals))
	var wg sync.WaitGroup
	for i, eval := range evals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eval()
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Error(err)
			}
			got[i] = buf.Bytes()
		}()
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) == 0 || !bytes.Equal(got[i], got[0]) {
			t.Errorf("concurrent evaluation %d diverges from evaluation 0", i)
		}
	}
}
