package sweep

// Tests for strip dispatch: RunShards hands workers strips — units, or
// slices of units cut at handoff-free positions — while the shard stays
// the unit of commit. Slicing may change which goroutine evaluates a
// cell, never a committed byte.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/topogen"
)

// checkpointLines returns a checkpoint file's header line and its
// record lines sorted — the file as a set of lines, which is what a
// run's record order (scheduling-dependent) leaves comparable.
func checkpointLines(t *testing.T, path string) (header string, records []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for _, l := range lines[1:] {
		records = append(records, string(l))
	}
	slices.Sort(records)
	return string(lines[0]), records
}

// TestSlicedShardsEquivalence is the per-driver matrix of strip
// dispatch: over the identity, nested-chain and forest grids, every
// worker count × shard size lands on the golden result bytes, writes a
// durable checkpoint holding exactly the lines the one-worker run wrote,
// and reports the one-worker run's ShardStats — units, handoff hits and
// misses, planner fields. Shard sizes span "every cell its own shard"
// (nothing to slice) to "one shard larger than the grid" (everything
// sliced, one commit).
func TestSlicedShardsEquivalence(t *testing.T) {
	g500, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	g400, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 31})
	golden := func(file string) []byte {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	identity := goldenGrid(g500, 1, nil)
	identity.Incremental = IncrementalOff
	forestWant := resultJSON(t, mustEvaluate(forestGrid(g400, 1, IncrementalOff), g400), nil)
	requireForestSchedule(t, forestGrid(g400, 1, IncrementalAuto), g400)

	workerCounts := []int{2, 3, runtime.GOMAXPROCS(0)}
	sizes := []int{1, 7, 64, 1 << 20}
	if raceEnabled {
		// One whole-shard and one all-sliced combination are enough for
		// the race detector; the full matrix runs in the plain test job.
		workerCounts, sizes = []int{3}, []int{7, 1 << 20}
	}
	for _, tc := range []struct {
		name string
		g    *asgraph.Graph
		grid *Grid
		want []byte
	}{
		{"identity", g500, identity, golden("golden_onehop.json")},
		{"nested", g500, nestedGrid(g500, 1, IncrementalAuto), golden("golden_nested.json")},
		{"forest", g400, forestGrid(g400, 1, IncrementalAuto), forestWant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := mustPrepare(tc.grid, tc.g)
			dir := t.TempDir()
			evaluate := func(workers, size int) (header string, records []string, stats ShardStats) {
				t.Helper()
				pl.gr.Workers = workers
				ckpt := filepath.Join(dir, "run.ckpt")
				res, err := pl.EvaluateSharded(context.Background(),
					ShardOptions{ShardSize: size, Checkpoint: ckpt}, RunOptions{Stats: &stats})
				if got := resultJSON(t, res, err); !bytes.Equal(got, tc.want) {
					t.Errorf("workers=%d shard=%d: result diverges from the golden bytes", workers, size)
				}
				header, records = checkpointLines(t, ckpt)
				return header, records, stats
			}
			sliced := false
			for _, size := range sizes {
				header1, records1, stats1 := evaluate(1, size)
				if len(records1) != numShards(pl.ax.cells, size) {
					t.Fatalf("shard=%d: one-worker checkpoint holds %d records, want %d", size, len(records1), numShards(pl.ax.cells, size))
				}
				for _, w := range workerCounts {
					l := pl.Layout(size)
					units := pl.Units(l)
					sliced = sliced || len(pl.strips(nil, units, l, w)) > len(units)
					header, records, stats := evaluate(w, size)
					if header != header1 || !slices.Equal(records, records1) {
						t.Errorf("workers=%d shard=%d: checkpoint lines differ from the one-worker file", w, size)
					}
					if stats != stats1 {
						t.Errorf("workers=%d shard=%d: stats %+v, one worker reported %+v", w, size, stats, stats1)
					}
				}
			}
			if !sliced {
				t.Error("no (workers, shard size) combination sliced a unit: the matrix does not exercise strips")
			}
		})
	}
}

// TestStripsPartitionPendingCells is the dispatch property: for random
// (grid, shard size, missing-shard set, worker count) the strips tile
// exactly the pending shards' cells in order, each inside one unit, and
// every cut that is not a pending run's own start is handoff-free — so
// no strip boundary ever asks for a fixed point another goroutine holds.
// One worker gets the units themselves.
func TestStripsPartitionPendingCells(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	plans := []*Plan{
		mustPrepare(chainedGrid(g, IncrementalOff), g),
		mustPrepare(chainedGrid(g, IncrementalAuto), g),
		mustPrepare(forestGrid(g, 1, IncrementalAuto), g),
	}
	rng := rand.New(rand.NewSource(15))
	slicedIters := 0
	for iter := 0; iter < 400; iter++ {
		pl := plans[rng.Intn(len(plans))]
		cells := pl.ax.cells
		size := 1 + rng.Intn(cells+10)
		if rng.Intn(2) == 0 {
			size = 1 + rng.Intn(12) // small sizes: many shards, mid-chain boundaries
		}
		workers := 1 + rng.Intn(9)
		l := pl.Layout(size)

		// A random missing-shard set, as ascending disjoint runs.
		var missing []ShardRange
		keep := rng.Float64()
		for s := 0; s < l.Shards; s++ {
			if rng.Float64() > keep {
				continue
			}
			if n := len(missing); n > 0 && missing[n-1].End == s {
				missing[n-1].End++
			} else {
				missing = append(missing, ShardRange{Start: s, End: s + 1})
			}
		}

		units := pl.units(nil, missing, size)
		strips := pl.strips(nil, units, l, workers)
		if workers == 1 && len(strips) != len(units) {
			t.Fatalf("iter %d: one worker got %d strips for %d units", iter, len(strips), len(units))
		}
		runStart := map[int]bool{}
		for _, r := range missing {
			runStart[r.Start*size] = true
		}
		i := 0
		for _, u := range units {
			pos, end := u.Start*size, min(u.End*size, cells)
			for pos < end {
				if i == len(strips) {
					t.Fatalf("iter %d (size %d, workers %d): strips end before unit %+v is covered", iter, size, workers, u)
				}
				st := strips[i]
				i++
				if st.start != pos || st.end <= st.start || st.end > end {
					t.Fatalf("iter %d (size %d, workers %d): strip %+v does not continue unit %+v at %d", iter, size, workers, st, u, pos)
				}
				if !runStart[st.start] && !pl.sched.handoffFree(st.start) {
					t.Fatalf("iter %d (size %d, workers %d): strip %+v starts mid-chain", iter, size, workers, st)
				}
				pos = st.end
			}
		}
		if i != len(strips) {
			t.Fatalf("iter %d: %d strips beyond the pending cells", iter, len(strips)-i)
		}
		if len(strips) > len(units) {
			slicedIters++
		}
	}
	if slicedIters < 100 {
		t.Errorf("only %d of 400 iterations sliced a unit: the property is barely exercised", slicedIters)
	}
}

// cancellingAttack is the one-hop hijack that cancels a context on its
// after-th Seed call — a few cells in, since the walk probes an attack's
// roots as well as running it: an interruption that lands while shards
// are only partly evaluated.
type cancellingAttack struct {
	runs   *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c cancellingAttack) Name() string { return core.DefaultAttack.Name() }
func (c cancellingAttack) Seed(s *core.Seeder) {
	if c.runs.Add(1) == c.after {
		c.cancel()
	}
	core.OneHopHijack{}.Seed(s)
}

// TestSlicedShardAbort pins "byte-identical or refuse loudly" under
// slicing, on a grid whose two workers share three sliced shards. A
// context cancelled while every shard is still partial commits nothing
// and a resume re-evaluates every cell; a commit that fails is the last
// commit call, whatever slices were still in flight.
func TestSlicedShardAbort(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	newGrid := func(attack core.Attack) *Grid {
		gr := chainedGrid(g, IncrementalOff)
		gr.Workers = 2
		gr.Attack = attack
		return gr
	}
	pl := mustPrepare(newGrid(nil), g)
	total := validCells(&pl.gr, len(pl.ax.models))
	size := (pl.ax.cells + 2) / 3
	l := pl.Layout(size)
	if n := len(pl.strips(nil, pl.Units(l), l, 2)); n <= l.Shards {
		t.Fatalf("%d strips over %d shards: the grid is not sliced", n, l.Shards)
	}
	want := resultJSON(t, mustEvaluate(newGrid(nil), g), nil)

	t.Run("cancel mid-shard", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var runs atomic.Int64
		ckpt := filepath.Join(t.TempDir(), "cancel.ckpt")
		opts := ShardOptions{ShardSize: size, Checkpoint: ckpt, Sink: func(p *ShardPartial) error {
			t.Errorf("shard %d committed although the run was cancelled before any shard was complete", p.Shard)
			return nil
		}}
		// Ten seedings in, no strip — let alone a shard — is finished.
		res, err := mustPrepare(newGrid(cancellingAttack{&runs, 10, cancel}), g).EvaluateSharded(ctx, opts, RunOptions{})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cancelled run returned (%v, %v), want (nil, context.Canceled)", res, err)
		}
		if _, records := checkpointLines(t, ckpt); len(records) != 0 {
			t.Fatalf("checkpoint holds %d records of partly evaluated shards", len(records))
		}
		opts.Resume, opts.Sink = true, nil
		res, walk, err := evaluateCounted(context.Background(), newGrid(nil), g, opts)
		if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
			t.Error("resume after a mid-shard cancellation diverges")
		}
		if walk.cells != total {
			t.Errorf("resume walked %d cells, want all %d (nothing was committed)", walk.cells, total)
		}
		if walk.runs >= walk.cells {
			t.Errorf("resume made %d engine runs for %d cells: the security-free collapse did not fire", walk.runs, walk.cells)
		}
	})

	t.Run("commit error", func(t *testing.T) {
		boom := errors.New("store full")
		calls := 0
		err := pl.RunShards(context.Background(), l, []ShardRange{{End: l.Shards}}, RunOptions{}, func(*ShardPartial) error {
			calls++ // serial under the commit mutex
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("RunShards returned %v, want the commit error", err)
		}
		if calls != 1 {
			t.Errorf("commit called %d times, want exactly once: a failed commit must be the last", calls)
		}
	})
}
