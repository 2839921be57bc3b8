package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

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

// TestShardedFullEnumeration400 is the acceptance bound: a true |V|²
// enumeration (stub attackers included, as in Figure 6) of a 400-AS
// graph completes through the sharded path within go test timeouts, on
// result bytes whose SHA-256 was pinned before this test stopped
// evaluating the grid a second time.
func TestShardedFullEnumeration400(t *testing.T) {
	if testing.Short() {
		t.Skip("full |V|² enumeration in -short mode")
	}
	if raceEnabled {
		// The test pins a wall-clock acceptance bound the race detector
		// only distorts; the race coverage of the sharded path comes
		// from the sweep matrix.
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
	if got := resultJSON(t, res, err); res.Cells[0].Metric.Pairs != 400*399 {
		t.Fatalf("enumerated %d pairs, want %d", res.Cells[0].Metric.Pairs, 400*399)
	} else if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != "37aaa96cf01938b53d3e6ede8d1b028c325846217c9acb75b0d4f5b24904d19e" {
		t.Errorf("sharded |V|² result hashes to %x", sum)
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
	o := newOracle(grid(), g)
	res, err := evaluateSharded(context.Background(), grid(), g, ShardOptions{ShardSize: 8, Checkpoint: ckpt})
	o.check(t, res, err)

	pristine, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// Torn final append: everything before it is still usable.
	if err := os.WriteFile(ckpt, append(append([]byte{}, pristine...), `{"kind":"shard","sh`...), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = evaluateSharded(context.Background(), grid(), g, ShardOptions{ShardSize: 8, Checkpoint: ckpt, Resume: true})
	o.check(t, res, err)

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
		o.check(t, res, err)
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

// TestShardedSinkStopsOnLastShard: a sink that fails, or cancels the
// context, on the grid's last shard still fails the evaluation. On a
// durable store of several shards that shard is settled after the walk
// has returned, once its fsync is done; a memory-only store, or a single
// shard, settles it inside the walk.
func TestShardedSinkStopsOnLastShard(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 120, Seed: 3})
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	pl := mustPrepare(&Grid{Attackers: M, Destinations: D, Workers: 2}, g)
	boom := errors.New("sink full")
	for _, size := range []int{8, DefaultShardSize} {
		shards := pl.Layout(size).Shards
		for _, durable := range []bool{true, false} {
			for _, want := range []error{boom, context.Canceled} {
				ctx, cancel := context.WithCancel(context.Background())
				calls := 0
				opts := ShardOptions{ShardSize: size, Sink: func(*ShardPartial) error {
					if calls++; calls < shards {
						return nil
					}
					if want == boom {
						return boom
					}
					cancel()
					return nil
				}}
				if durable {
					opts.Checkpoint = filepath.Join(t.TempDir(), "last.ckpt")
				}
				res, err := pl.EvaluateSharded(ctx, opts, RunOptions{})
				cancel()
				if res != nil || !errors.Is(err, want) {
					t.Errorf("%d shards, durable=%v: sink stopping on the last shard gave (%v, %v), want (nil, %v)", shards, durable, res, err, want)
				}
				if calls != shards {
					t.Errorf("%d shards, durable=%v: sink called %d times, want once per shard", shards, durable, calls)
				}
			}
		}
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
