package sweep

import (
	"context"
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

// TestEvaluateShardRangeForeignLayout: a layout minted by a different
// grid (here a different-sized topology — the fingerprint binds N plus
// every axis membership; the topology's edge set itself is bound by the
// job spec that names it, not the fingerprint) must be refused with a
// fingerprint mismatch, not evaluated into meaningless shard indices,
// by every entry point that takes one; and malformed ranges are
// rejected.
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
	err = pl.RunShards(context.Background(), foreign, []ShardRange{{End: 1}}, RunOptions{}, func(*ShardPartial) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("RunShards accepted a foreign layout (err %v)", err)
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

// TestPlanConcurrentEvaluation: a Plan is immutable after Prepare but for
// its write-once baseline memo, so one Plan serves every entry point from
// several goroutines at once — two plain Evaluates, a finely sharded
// evaluation on a caller pool, and a range evaluation merged by hand,
// released together on a fresh plan so the memo's allocation and first
// fills are raced for — and all four match the oracle. Run under
// -race this is the proof that the memo is the only thing an entry point
// writes, and that it writes it safely.
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
	o := newOracle(&pl.gr, g)
	got := make([]*Result, len(evals))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, eval := range evals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := eval()
			if err != nil {
				t.Error(err)
			}
			got[i] = res
		}()
	}
	close(start)
	wg.Wait()
	for i, res := range got {
		if res != nil {
			if d := o.diff(res); d != "" {
				t.Errorf("concurrent evaluation %d: %s", i, d)
			}
		}
	}
}
