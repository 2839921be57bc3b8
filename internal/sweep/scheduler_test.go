package sweep

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// chainedGrid is a rollout-shaped axis whose deployment chain the
// scheduler orders chain-major.
func chainedGrid(g *asgraph.Graph, mode IncrementalMode) *Grid {
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	nonStubs := asgraph.NonStubs(g)
	deployments := []Deployment{{Name: "baseline"}}
	for _, k := range []int{4, 10, 20} {
		deployments = append(deployments, Deployment{
			Name: fmt.Sprintf("step%d", k),
			Dep:  &core.Deployment{Full: asgraph.SetOf(g.N(), nonStubs[:k]...)},
		})
	}
	return &Grid{
		Deployments:  deployments,
		Attackers:    M,
		Destinations: D,
		Incremental:  mode,
		Workers:      4,
	}
}

// scheduledCell decodes scheduled position p to its raw cell index the
// way the walk does: block, group, chain position.
func scheduledCell(s *schedule, p int) int {
	ax := s.ax
	ci := s.chainAt(p)
	ch := s.plan.chains[ci]
	r := p - s.blockStart[ci]
	gi, pos := r/len(ch), r%len(ch)
	mi := gi / (ax.nd * ax.na)
	rem := gi % (ax.nd * ax.na)
	di, ai := rem/ax.na, rem%ax.na
	return ((ch[pos].si*ax.nm+mi)*ax.nd+di)*ax.na + ai
}

// TestScheduleShapes pins the scheduler's structural contract on real
// grids: every schedule lays out as a permutation of the cell space the
// loop can cut anywhere (checkScheduleLayout), and on both identity
// cases (IncrementalOff, and an IncrementalAuto axis the planner cannot
// link, declared out of size order) it is the trivial one: position p is
// cell p.
func TestScheduleShapes(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	for _, tc := range []struct {
		name     string
		grid     *Grid
		identity bool
	}{
		{"off", chainedGrid(g, IncrementalOff), true},
		{"auto-unlinkable", unlinkableGrid(g, IncrementalAuto), true},
		{"auto-chained", chainedGrid(g, IncrementalAuto), false},
	} {
		s := mustPrepare(tc.grid, g).sched
		if s.identity() != tc.identity {
			t.Fatalf("%s: identity = %v, want %v", tc.name, s.identity(), tc.identity)
		}
		checkScheduleLayout(t, s)
		for p := 0; tc.identity && p < s.ax.cells; p++ {
			if cell := scheduledCell(s, p); cell != p {
				t.Fatalf("%s: identity order maps position %d to cell %d", tc.name, p, cell)
			}
		}
	}
}

// TestScheduleLayoutCheckpointCompat is the cross-layout resume
// contract: shards are cut on the scheduled order, so a checkpoint
// written under the identity layout (every pre-scheduler release, and
// IncrementalOff today) must be rejected loudly — via the fingerprint's
// schedule tag — when resumed under the chain-major layout, and vice
// versa; silently merging partials across layouts would double-count
// some cells and drop others. Same-layout resumes keep working, and the
// identity fingerprint itself is unchanged from the pre-scheduler
// format.
func TestScheduleLayoutCheckpointCompat(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	dir := t.TempDir()
	run := func(mode IncrementalMode, ckpt string, resume bool) (*Result, error) {
		return evaluateSharded(context.Background(), chainedGrid(g, mode), g, ShardOptions{
			ShardSize:  7,
			Checkpoint: ckpt,
			Resume:     resume,
		})
	}

	var want bytes.Buffer
	if err := mustEvaluate(chainedGrid(g, IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	// An identity-layout checkpoint (pre-refactor shard layout).
	legacy := filepath.Join(dir, "legacy.ckpt")
	if _, err := run(IncrementalOff, legacy, false); err != nil {
		t.Fatal(err)
	}
	// Resumed under the same layout: fine, byte-identical.
	res, err := run(IncrementalOff, legacy, true)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("identity-layout resume diverges")
	}
	// Resumed under the chain-major layout: rejected, not silently
	// merged.
	if _, err := run(IncrementalAuto, legacy, true); err == nil {
		t.Fatal("identity-layout checkpoint resumed under the chain-major layout without error")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("cross-layout resume failed with %v, want a fingerprint mismatch", err)
	}

	// And the mirror image: a chain-major checkpoint rejected under the
	// identity layout, accepted under its own.
	chained := filepath.Join(dir, "chained.ckpt")
	if _, err := run(IncrementalAuto, chained, false); err != nil {
		t.Fatal(err)
	}
	if _, err := run(IncrementalOff, chained, true); err == nil {
		t.Fatal("chain-major checkpoint resumed under the identity layout without error")
	}
	res2, err := run(IncrementalAuto, chained, true)
	if err != nil {
		t.Fatal(err)
	}
	var got2 bytes.Buffer
	if err := res2.WriteJSON(&got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Bytes(), want.Bytes()) {
		t.Error("chain-major resume diverges")
	}

	// The identity fingerprint is the pre-scheduler fingerprint: a grid
	// whose axis cannot chain (singleton deployment) fingerprints the
	// same under both modes, so old checkpoints of such grids resume
	// under the default.
	flatGrid := func(mode IncrementalMode) *Grid {
		gr := chainedGrid(g, mode)
		gr.Deployments = gr.Deployments[1:2]
		return gr
	}
	fpOff := mustPrepare(flatGrid(IncrementalOff), g).fp
	fpAuto := mustPrepare(flatGrid(IncrementalAuto), g).fp
	if fpOff != fpAuto {
		t.Errorf("chain-free axis fingerprints differ across modes (%s vs %s)", fpOff, fpAuto)
	}
}

// TestChainMajorInterruptResume interrupts a chain-major sharded run
// mid-flight (real 4-step chains, single-cell shards so nearly every
// chain step sits at a shard boundary) and resumes it: the resumed run
// re-evaluates only the missing shards — whose chains restart from
// whatever heads the checkpoint gap dictates, with no handoffs offered
// by the skipped shards — and must still land on the uninterrupted
// bytes exactly.
func TestChainMajorInterruptResume(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 23})
	var want bytes.Buffer
	if err := mustEvaluate(chainedGrid(g, IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "chainmajor.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completed := 0
	res, err := evaluateSharded(ctx, chainedGrid(g, IncrementalAuto), g, ShardOptions{
		ShardSize:  1,
		Checkpoint: ckpt,
		Sink: func(*ShardPartial) error {
			// Far enough in that many chains are mid-walk, far enough
			// from the end that plenty of shards remain.
			if completed++; completed == 40 {
				cancel()
			}
			return nil
		},
	})
	if err == nil || res != nil {
		t.Fatalf("interrupted run returned (%v, %v), want cancellation", res, err)
	}
	res2, err := evaluateSharded(context.Background(), chainedGrid(g, IncrementalAuto), g, ShardOptions{
		ShardSize:  1,
		Checkpoint: ckpt,
		Resume:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res2.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("resumed chain-major run diverges from the uninterrupted bytes")
	}
}

// expectedHandoffTakes counts the shard boundaries of a fresh sharded
// run that cut a chain group mid-walk for a valid (m ≠ d) pair — each
// one is exactly one handoff take, and with chain-ordered strip dispatch
// each must be a hit.
func expectedHandoffTakes(pl *Plan, size int) int {
	gr, ax, sched := &pl.gr, pl.ax, pl.sched
	takes := 0
	for s := 1; s < numShards(ax.cells, size); s++ {
		p := s * size
		if sched.handoffFree(p) {
			continue
		}
		ci := sched.chainAt(p)
		clen := len(sched.plan.chains[ci])
		gi := (p - sched.blockStart[ci]) / clen
		rem := gi % (ax.nd * ax.na)
		di, ai := rem/ax.na, rem%ax.na
		if gr.Attackers[ai] == gr.Destinations[di] {
			continue
		}
		takes++
	}
	return takes
}

// TestCrossShardHandoffEquivalence drives the tail handoff hard: shard
// sizes that cut every chain mid-walk (including size 1, where every
// cell is its own shard and every chain step crosses a boundary) must
// reproduce the flat evaluation byte for byte, with and without a
// checkpoint in the loop. The stats assertions pin the deterministic
// dispatch contract: on a fresh run every boundary that cuts a chain is
// interior to one dispatch strip, so every take hits and none misses.
func TestCrossShardHandoffEquivalence(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 29})
	var want bytes.Buffer
	if err := mustEvaluate(chainedGrid(g, IncrementalOff), g).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 3, 5} {
		pl := mustPrepare(chainedGrid(g, IncrementalAuto), g)
		wantHits := expectedHandoffTakes(pl, size)
		if wantHits == 0 {
			t.Fatalf("shard size %d: test grid exercises no cross-shard handoffs", size)
		}
		var stats ShardStats
		res, err := pl.EvaluateSharded(context.Background(), ShardOptions{ShardSize: size}, RunOptions{Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		if stats.HandoffMisses != 0 {
			t.Errorf("shard size %d: %d handoff misses on a fresh run, want 0", size, stats.HandoffMisses)
		}
		if stats.HandoffHits != wantHits {
			t.Errorf("shard size %d: %d handoff hits, want %d", size, stats.HandoffHits, wantHits)
		}
		if stats.Units <= 0 || stats.Units > numShards(pl.ax.cells, size) {
			t.Errorf("shard size %d: implausible unit count %d", size, stats.Units)
		}
		var got bytes.Buffer
		if err := res.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("shard size %d: handoff result diverges from flat evaluation", size)
		}
		ckpt := filepath.Join(t.TempDir(), "handoff.ckpt")
		cres, err := pl.EvaluateSharded(context.Background(), ShardOptions{
			ShardSize:  size,
			Checkpoint: ckpt,
		}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var cgot bytes.Buffer
		if err := cres.WriteJSON(&cgot); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cgot.Bytes(), want.Bytes()) {
			t.Errorf("shard size %d: checkpointed handoff result diverges", size)
		}
	}
}
