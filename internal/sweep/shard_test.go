package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// fullEnumGrid is the paper's M′ × V enumeration on a ~200-AS graph:
// every non-stub attacker against every destination, two deployments,
// all three models, per-destination series.
func fullEnumGrid(g *asgraph.Graph, workers int) *Grid {
	return &Grid{
		Deployments: []Deployment{
			{Name: "baseline"},
			{Name: "nonstubs", Dep: &core.Deployment{Full: asgraph.SetOf(g.N(), asgraph.NonStubs(g)...)}},
		},
		Attackers:    asgraph.NonStubs(g),
		Destinations: runner.AllASes(g.N()),
		PerDest:      true,
		Workers:      workers,
	}
}

// validCells counts the grid cells with m ≠ d — the number of cells a
// complete evaluation walks (and an upper bound on its engine runs: the
// baseline memo serves security-free cells without one).
func validCells(gr *Grid, nm int) int {
	perDest := 0
	for _, d := range gr.Destinations {
		for _, m := range gr.Attackers {
			if m != d {
				perDest++
			}
		}
	}
	ndeps := len(gr.Deployments)
	if ndeps == 0 {
		ndeps = 1
	}
	return perDest * nm * ndeps
}

// TestShardedEquivalence is the satellite contract: sharded full
// enumeration is byte-identical to the brute-force evaluation across
// worker counts {1, 4, GOMAXPROCS} and shard sizes {1, 7, 64}.
func TestShardedEquivalence(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 9})
	var want bytes.Buffer
	if err := mustEvaluate(fullEnumGrid(g, 1), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	sizes := []int{1, 7, 64}
	if raceEnabled {
		// One concurrent combination is enough for the race detector;
		// the full matrix runs in the plain test job.
		workerCounts, sizes = []int{4}, []int{7}
	}
	for _, workers := range workerCounts {
		for _, size := range sizes {
			res, err := evaluateSharded(context.Background(), fullEnumGrid(g, workers), g, ShardOptions{ShardSize: size})
			if err != nil {
				t.Fatalf("workers=%d shard=%d: %v", workers, size, err)
			}
			var got bytes.Buffer
			if err := res.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("workers=%d shard=%d: sharded JSON diverges from serial evaluation", workers, size)
			}
		}
	}
}

// TestShardedFullEnumeration400 is the acceptance bound: a true |V|²
// enumeration (stub attackers included, as in Figure 6) of a 400-AS
// graph completes through the sharded path within go test timeouts, and
// matches the unsharded evaluation byte for byte.
func TestShardedFullEnumeration400(t *testing.T) {
	if testing.Short() {
		t.Skip("full |V|² enumeration in -short mode")
	}
	if raceEnabled {
		// The test pins a wall-clock acceptance bound the race detector
		// only distorts; the race coverage of the sharded path comes
		// from the equivalence and interrupt/resume tests.
		t.Skip("full |V|² enumeration under -race")
	}
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 11})
	all := runner.AllASes(g.N())
	grid := &Grid{
		Models:       []policy.Model{policy.Sec3rd},
		Attackers:    all,
		Destinations: all,
	}
	res, err := evaluateSharded(context.Background(), grid, g, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 400 * 399; res.Cells[0].Metric.Pairs != want {
		t.Fatalf("enumerated %d pairs, want %d", res.Cells[0].Metric.Pairs, want)
	}
	var got, want bytes.Buffer
	if err := res.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := mustEvaluate(grid, g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("sharded |V|² result diverges from unsharded evaluation")
	}
}

// readCheckpoint decodes every complete record of a checkpoint file.
func readCheckpoint(t *testing.T, path string) (hdr *checkpointHeader, partials []*ShardPartial) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		h, p, err := decodeCheckpointLine(line)
		if err != nil {
			t.Fatalf("checkpoint line %q: %v", line, err)
		}
		if h != nil {
			hdr = h
		} else {
			partials = append(partials, p)
		}
	}
	return hdr, partials
}

// TestShardedInterruptResume cancels a checkpointed sweep mid-flight,
// resumes it, and asserts (a) the merged result is byte-identical to an
// uninterrupted run and (b) the resumed run re-evaluates exactly the
// cells the checkpoint does not cover — completed shards are never
// re-run, counted in cells the walk actually visited (walkCount; engine
// runs are fewer — this grid's baseline deployment and its stub
// destinations are security-free — so the honest engine-side claim is
// the inequality runs < cells, asserted alongside). It runs twice: with shards
// small enough that every strip is a whole shard, and with three big
// shards that two workers evaluate in slices — where the interruption
// also strands partly folded shards, which must leave no trace.
func TestShardedInterruptResume(t *testing.T) {
	t.Run("whole shards", func(t *testing.T) { testShardedInterruptResume(t, 4, 16, 5) })
	t.Run("sliced shards", func(t *testing.T) { testShardedInterruptResume(t, 2, 400, 1) })
}

func testShardedInterruptResume(t *testing.T, workers, shardSize, cancelAfter int) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 250, Seed: 13})
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 10, 20)
	newGrid := func() *Grid {
		return &Grid{
			Deployments: []Deployment{
				{Name: "baseline"},
				{Name: "nonstubs", Dep: &core.Deployment{Full: asgraph.SetOf(g.N(), asgraph.NonStubs(g)...)}},
			},
			Attackers:    M,
			Destinations: D,
			PerDest:      true,
			// The identity order: whole-shard strips at shard size 16 and
			// the sliced configuration below are stated in its layout.
			// Incremental interrupt/resume is covered by the cancel and
			// schedule-compat tests.
			Incremental: IncrementalOff,
			Workers:     workers,
		}
	}
	total := validCells(newGrid(), policy.NumModels)
	if pl := mustPrepare(newGrid(), g); shardSize > 16 {
		l := pl.Layout(shardSize)
		if n := len(pl.strips(nil, pl.Units(l), l, workers)); n <= l.Shards {
			t.Fatalf("%d strips over %d shards: this configuration is meant to slice", n, l.Shards)
		}
	}

	var want bytes.Buffer
	res, uninterrupted, err := evaluateCounted(context.Background(), newGrid(), g, ShardOptions{ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if uninterrupted.cells != total {
		t.Fatalf("uninterrupted run walked %d cells, want %d", uninterrupted.cells, total)
	}
	if uninterrupted.runs >= uninterrupted.cells {
		t.Fatalf("uninterrupted run made %d engine runs for %d cells: the security-free collapse did not fire", uninterrupted.runs, uninterrupted.cells)
	}

	// Interrupt: cancel from the sink once a few shards are durable.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completed := 0
	res1, err := evaluateSharded(ctx, newGrid(), g, ShardOptions{
		ShardSize:  shardSize,
		Checkpoint: ckpt,
		Sink: func(*ShardPartial) error {
			if completed++; completed == cancelAfter {
				cancel()
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) || res1 != nil {
		t.Fatalf("interrupted run returned (%v, %v), want (nil, context.Canceled)", res1, err)
	}

	// The checkpoint records exactly the shards whose sink ran, all
	// complete; their Pairs sums are the cells resume may skip.
	hdr, partials := readCheckpoint(t, ckpt)
	if hdr == nil {
		t.Fatal("checkpoint has no header")
	}
	if len(partials) < cancelAfter {
		t.Fatalf("checkpoint has %d shard records, want ≥ %d", len(partials), cancelAfter)
	}
	done := 0
	for _, p := range partials {
		for _, n := range p.Pairs {
			done += n
		}
	}
	if done == 0 || done >= total {
		t.Fatalf("checkpoint covers %d of %d cells; want a strict mid-flight subset", done, total)
	}

	// Resume: only the missing cells run, the sink observes the whole
	// grid (checkpointed shards replayed plus fresh ones), and the
	// merged result matches the uninterrupted bytes exactly.
	sinkShards := map[int]int{}
	res2, run2, err := evaluateCounted(context.Background(), newGrid(), g, ShardOptions{
		ShardSize:  shardSize,
		Checkpoint: ckpt,
		Resume:     true,
		Sink: func(p *ShardPartial) error {
			sinkShards[p.Shard]++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(M) * len(D) * policy.NumModels * 2
	if wantShards := numShards(cells, shardSize); len(sinkShards) != wantShards {
		t.Errorf("resume sink saw %d distinct shards, want the whole grid's %d", len(sinkShards), wantShards)
	}
	for s, n := range sinkShards {
		if n != 1 {
			t.Errorf("resume sink saw shard %d %d times, want once", s, n)
		}
	}
	if run2.cells != total-done {
		t.Errorf("resumed run walked %d cells, want %d (total %d − checkpointed %d)",
			run2.cells, total-done, total, done)
	}
	if run2.runs > run2.cells {
		t.Errorf("resumed run made %d engine runs for %d cells", run2.runs, run2.cells)
	}
	var got bytes.Buffer
	if err := res2.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("resumed result diverges from the uninterrupted run")
	}

	// Resuming the now-complete checkpoint evaluates nothing at all.
	res3, run3, err := evaluateCounted(context.Background(), newGrid(), g, ShardOptions{
		ShardSize:  shardSize,
		Checkpoint: ckpt,
		Resume:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run3 != (walkCount{}) {
		t.Errorf("resume of a complete checkpoint walked %d cells in %d engine runs, want none", run3.cells, run3.runs)
	}
	got.Reset()
	if err := res3.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("fully-resumed result diverges from the uninterrupted run")
	}
}

// TestShardedResumeRejectsMismatch: a checkpoint written for one grid
// must not seed a different one.
func TestShardedResumeRejectsMismatch(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 120, Seed: 3})
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	grid := &Grid{Attackers: M, Destinations: D}
	if _, err := evaluateSharded(context.Background(), grid, g, ShardOptions{ShardSize: 8, Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}

	other := &Grid{Attackers: M, Destinations: D[:len(D)-1]}
	_, err := evaluateSharded(context.Background(), other, g, ShardOptions{ShardSize: 8, Checkpoint: ckpt, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("mismatched resume: err = %v, want a different-sweep error", err)
	}

	// An explicitly different shard size is a different cell partition
	// and must be rejected, not merged ...
	_, err = evaluateSharded(context.Background(), grid, g, ShardOptions{ShardSize: 9, Checkpoint: ckpt, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "shard size") {
		t.Fatalf("shard-size mismatch: err = %v, want a shard-size error", err)
	}
	// ... while an unspecified shard size adopts the checkpoint's, so a
	// plain "resume" never has to repeat the original -shards value.
	if _, err := evaluateSharded(context.Background(), grid, g, ShardOptions{Checkpoint: ckpt, Resume: true}); err != nil {
		t.Fatalf("resume without a shard size did not adopt the file's: %v", err)
	}
}

// TestShardedCheckpointDurability: a torn final line (crash mid-append)
// is tolerated on resume; corruption before complete records is not.
func TestShardedCheckpointDurability(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 120, Seed: 3})
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	grid := func() *Grid { return &Grid{Attackers: M, Destinations: D, Workers: 2} }
	res, err := evaluateSharded(context.Background(), grid(), g, ShardOptions{ShardSize: 8, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	pristine, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// Torn final append: everything before it is still usable.
	if err := os.WriteFile(ckpt, append(append([]byte{}, pristine...), `{"kind":"shard","sh`...), 0o644); err != nil {
		t.Fatal(err)
	}
	res2, err := evaluateSharded(context.Background(), grid(), g, ShardOptions{ShardSize: 8, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume with torn final line: %v", err)
	}
	var got bytes.Buffer
	if err := res2.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("torn-line resume diverges from the clean result")
	}

	// Torn tail with shards still pending: the resume must truncate the
	// torn bytes before appending, or its first fresh record fuses with
	// them into interior corruption that poisons every later resume.
	lines := bytes.SplitAfter(pristine, []byte("\n"))
	missingLast := bytes.Join(lines[:len(lines)-2], nil)
	if err := os.WriteFile(ckpt, append(missingLast, `{"kind":"shard","sh`...), 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		res, err := evaluateSharded(context.Background(), grid(), g, ShardOptions{ShardSize: 8, Checkpoint: ckpt, Resume: true})
		if err != nil {
			t.Fatalf("resume round %d after torn tail with pending shards: %v", round, err)
		}
		got.Reset()
		if err := res.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("round %d: torn-tail-with-pending resume diverges from the clean result", round)
		}
	}

	// Corruption in the middle violates the fsync discipline and fails.
	corrupt := append(append(append([]byte{}, lines[0]...), []byte("not json\n")...), bytes.Join(lines[1:], nil)...)
	if err := os.WriteFile(ckpt, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := evaluateSharded(context.Background(), grid(), g, ShardOptions{ShardSize: 8, Checkpoint: ckpt, Resume: true}); err == nil {
		t.Error("resume accepted a checkpoint with a corrupt interior line")
	}

	// A file with no complete line holds no durable record: fresh run.
	if err := os.WriteFile(ckpt, []byte(`{"kind":"hea`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := evaluateSharded(context.Background(), grid(), g, ShardOptions{ShardSize: 8, Checkpoint: ckpt, Resume: true}); err != nil {
		t.Errorf("resume with a torn header did not restart fresh: %v", err)
	}
}

// TestShardedSinkError: a failing sink (or checkpoint write) aborts the
// evaluation with the sink's error instead of returning a result.
func TestShardedSinkError(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 120, Seed: 3})
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	grid := &Grid{Attackers: M, Destinations: D, Workers: 2}
	boom := errors.New("sink full")
	res, err := evaluateSharded(context.Background(), grid, g, ShardOptions{
		ShardSize: 8,
		Sink:      func(*ShardPartial) error { return boom },
	})
	if !errors.Is(err, boom) || res != nil {
		t.Fatalf("failing sink returned (%v, %v), want (nil, %v)", res, err, boom)
	}
}

// TestShardedSinkStreams: every cell reaches the sink exactly once, and
// the streamed partials merge to the same totals the Result reports.
func TestShardedSinkStreams(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 120, Seed: 3})
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	grid := &Grid{Attackers: M, Destinations: D, Workers: 4}
	seen := map[int]bool{}
	pairs := 0
	res, err := evaluateSharded(context.Background(), grid, g, ShardOptions{
		ShardSize: 7,
		Sink: func(p *ShardPartial) error {
			if seen[p.Shard] {
				return fmt.Errorf("shard %d delivered twice", p.Shard)
			}
			seen[p.Shard] = true
			for _, n := range p.Pairs {
				pairs += n
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(M) * len(D) * policy.NumModels
	if wantShards := numShards(cells, 7); len(seen) != wantShards {
		t.Errorf("sink saw %d shards, want %d", len(seen), wantShards)
	}
	total := 0
	for _, c := range res.Cells {
		total += c.Metric.Pairs
	}
	if pairs != total {
		t.Errorf("sink streamed %d pairs, result aggregates %d", pairs, total)
	}
}

// TestCheckpointRecordRoundTrip pins the decoder the fuzz target
// exercises: encoded records decode to equal values, and a sampling of
// malformed lines is rejected.
func TestCheckpointRecordRoundTrip(t *testing.T) {
	sh := 3
	good := []any{
		checkpointHeader{V: 1, Kind: "header", Fingerprint: "0123456789abcdef", Cells: 100, ShardSize: 7, Shards: 15},
		shardRecord{Kind: "shard", ShardPartial: &ShardPartial{Shard: sh, Tasks: []int{0, 4}, Lo: []int{1, 2}, Hi: []int{1, 3}, Pairs: []int{1, 1}}},
		shardRecord{Kind: "shard", ShardPartial: &ShardPartial{Shard: 0}},
	}
	for _, rec := range good {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeCheckpointLine(data); err != nil {
			t.Errorf("valid record %s rejected: %v", data, err)
		}
	}
	bad := []string{
		``,
		`not json`,
		`{"kind":"header","v":2,"fingerprint":"0123456789abcdef","cells":100,"shard_size":7,"shards":15}`,
		`{"kind":"header","v":1,"fingerprint":"short","cells":100,"shard_size":7,"shards":15}`,
		`{"kind":"header","v":1,"fingerprint":"0123456789abcdef","cells":100,"shard_size":7,"shards":14}`,
		`{"kind":"shard"}`,
		`{"kind":"shard","shard":-1}`,
		`{"kind":"shard","shard":1,"tasks":[1],"lo":[1],"hi":[1]}`,
		`{"kind":"shard","shard":1,"tasks":[2,1],"lo":[1,1],"hi":[1,1],"pairs":[1,1]}`,
		`{"kind":"shard","shard":1,"tasks":[1],"lo":[2],"hi":[1],"pairs":[1]}`,
		`{"kind":"shard","shard":1,"tasks":[1],"lo":[1],"hi":[1],"pairs":[0]}`,
		`{"kind":"wat"}`,
		`{"kind":"shard","shard":1,"tasks":[1],"lo":[1],"hi":[1],"pairs":[1]} trailing`,
		`{"kind":"shard","shard":1,"tasks":[1],"lo":[1],"hi":[1],"pairs":[1],"extra":true}`,
	}
	for _, line := range bad {
		if _, _, err := decodeCheckpointLine([]byte(line)); err == nil {
			t.Errorf("malformed record accepted: %s", line)
		}
	}
}
