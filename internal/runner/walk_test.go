package runner

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// walkFixture is a generated graph with sampled pair sets.
func walkFixture(n int, seed int64, maxM, maxD int) (*asgraph.Graph, *asgraph.Tiers, []asgraph.AS, []asgraph.AS) {
	g, meta := topogen.MustGenerate(topogen.Params{N: n, Seed: seed})
	M, D := SamplePairs(asgraph.NonStubs(g), allASes(g), maxM, maxD)
	return g, asgraph.Classify(g, meta.CPs, nil), M, D
}

// TestWalkPairsRowsIdenticalAcrossWorkers: rows are positional
// integers, so every worker count returns the same slice.
func TestWalkPairsRowsIdenticalAcrossWorkers(t *testing.T) {
	g, tiers, M, D := walkFixture(300, 4, 6, 11)
	want := partitionRows(t, g, tiers, M, D, 1)
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		if got := partitionRows(t, g, tiers, M, D, workers); !slices.Equal(got, want) {
			t.Errorf("workers=%d: rows differ from the serial walk", workers)
		}
	}
}

// TestWalkPairsSkipsSelfPairsAndKeepsOrientation drives the walk with a
// recording kernel: every (o, i) with i ≠ o lands in o's row exactly
// once, in inner order.
func TestWalkPairsSkipsSelfPairsAndKeepsOrientation(t *testing.T) {
	outer := []asgraph.AS{3, 1, 4}
	inner := []asgraph.AS{1, 5, 3}
	for _, workers := range []int{1, 3} {
		rows, err := WalkPairs(context.Background(), outer, inner, workers, 3, func() PairKernel {
			return func(row []int64, o, i asgraph.AS) {
				row[0]++
				row[1] += int64(o)
				row[2] = row[2]*10 + int64(i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{2, 6, 15, 2, 2, 53, 3, 12, 153}
		if !slices.Equal(rows, want) {
			t.Errorf("workers=%d: rows = %v, want %v", workers, rows, want)
		}
	}
}

// TestWalkPairsCancelledMidway cancels from inside an early pair: the
// walk stops dispatching, reports the context error and returns no
// partial rows.
func TestWalkPairsCancelledMidway(t *testing.T) {
	outer, inner := AllASes(10_000), AllASes(4)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		rows, err := WalkPairs(ctx, outer, inner, workers, 1, func() PairKernel {
			return func(row []int64, o, i asgraph.AS) {
				row[0]++
				if ran.Add(1) == 10 {
					cancel()
				}
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if rows != nil {
			t.Errorf("workers=%d: a cancelled walk returned %d partial counts", workers, len(rows))
		}
		// Each worker finishes the outer element it is on, no more.
		if n := ran.Load(); n > int64(10+workers*len(inner)) {
			t.Errorf("workers=%d: %d pairs ran after cancellation at pair 10", workers, n)
		}
	}
}

// TestPartitionKernelMatchesDirectRuns: on generated graphs the walk's
// rows equal direct Partitioner.Run(d, m).Counts(model) sums, and the
// source-tier columns sum to the overall partition exactly.
func TestPartitionKernelMatchesDirectRuns(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g, tiers, M, D := walkFixture(200, seed, 5, 9)
		rows := partitionRows(t, g, tiers, M, D, 3)
		p := core.NewPartitioner(g, policy.Standard)
		for di, d := range D {
			var want [policy.NumModels][core.NumCategories]int64
			var pairs int64
			for _, m := range M {
				if m == d {
					continue
				}
				part := p.Run(d, m)
				for _, model := range policy.Models {
					im, dm, pr := part.Counts(model)
					want[model][core.CatImmune] += int64(im)
					want[model][core.CatDoomed] += int64(dm)
					want[model][core.CatProtectable] += int64(pr)
				}
				pairs++
			}
			row := rows[di*PartitionWidth : (di+1)*PartitionWidth]
			if row[PartitionWidth-1] != pairs {
				t.Errorf("seed %d dest %d: pairs = %d, want %d", seed, d, row[PartitionWidth-1], pairs)
			}
			for _, model := range policy.Models {
				var got [core.NumCategories]int64
				for tier := 0; tier < asgraph.NumTiers; tier++ {
					for cat := range got {
						got[cat] += row[(tier*policy.NumModels+int(model))*core.NumCategories+cat]
					}
				}
				if got != want[model] {
					t.Errorf("seed %d dest %d %v: Σ source tiers = %v, direct counts %v", seed, d, model, got, want[model])
				}
				if sources := got[0] + got[1] + got[2]; sources != pairs*int64(g.N()-2) {
					t.Errorf("seed %d dest %d %v: %d sources counted over %d pairs", seed, d, model, sources, pairs)
				}
			}
		}
	}
}

// TestWalkPairsPerPairZeroAllocs: on a warm kernel a walk allocates its
// rows and nothing per pair or per outer element — the same count at
// two pair-set sizes.
func TestWalkPairsPerPairZeroAllocs(t *testing.T) {
	g, tiers, M, D := walkFixture(200, 6, 8, 24)
	kernel := PartitionKernel(g, tiers, policy.Standard)()
	allocs := func(M, D []asgraph.AS) float64 {
		return testing.AllocsPerRun(3, func() {
			_, err := WalkPairs(context.Background(), D, M, 1, PartitionWidth, func() PairKernel { return kernel })
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(M, D) // grow the partitioner's scratch to its high-water mark
	small, large := allocs(M[:2], D[:3]), allocs(M, D)
	if small != large || large > 3 {
		t.Errorf("walk allocations: %v for 2×3 pairs, %v for %d×%d; want equal and at most 3 (rows, dispatch closure, kernel constructor)",
			small, large, len(M), len(D))
	}
}
