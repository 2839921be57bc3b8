package runner

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// TestForEachCoversAllIndices checks the chunked dispatcher visits every
// index exactly once across worker counts and awkward n/chunk ratios.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, w := range []int{1, 3, 8, 32} {
			hits := make([]int32, n)
			states := new(atomic.Int32)
			err := ForEach(nil, n, w, func() int {
				return int(states.Add(1))
			}, func(_ int, di int) {
				atomic.AddInt32(&hits[di], 1)
			})
			if err != nil {
				t.Fatalf("n=%d w=%d: unexpected error %v", n, w, err)
			}
			for di := range hits {
				if hits[di] != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, di, hits[di])
				}
			}
			if n > 0 && int(states.Load()) > Workers(w) {
				t.Errorf("n=%d w=%d: %d states built for %d workers", n, w, states.Load(), Workers(w))
			}
		}
	}
}

// TestForEachPreCancelled: a context cancelled before the call runs no
// index at all and reports the context error, serial and parallel.
func TestForEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 8} {
		var ran atomic.Int32
		err := ForEach(ctx, 1000, w, func() int { return 0 }, func(_, _ int) {
			ran.Add(1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("w=%d: err = %v, want context.Canceled", w, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("w=%d: %d indices ran under a pre-cancelled context", w, n)
		}
	}
}

// TestForEachCancelledMidway cancels from inside an early index and
// checks the dispatch stops promptly: later indices never run and the
// context error is reported.
func TestForEachCancelledMidway(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEach(ctx, 100_000, w, func() int { return 0 }, func(_, di int) {
			if ran.Add(1) == 10 {
				cancel()
			}
			time.Sleep(10 * time.Microsecond)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("w=%d: err = %v, want context.Canceled", w, err)
		}
		// Each worker may finish the index it was on plus at most the
		// ones dispatched before the cancellation propagated; with 100k
		// indices, running anywhere near all of them means the cancel
		// check is broken.
		if n := ran.Load(); n > 50_000 {
			t.Errorf("w=%d: %d of 100000 indices ran after cancellation", w, n)
		}
	}
}

func chain(n int) *asgraph.Graph {
	b := asgraph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddProviderCustomer(asgraph.AS(i-1), asgraph.AS(i))
	}
	return b.MustBuild()
}

func TestEvalMetricHandComputed(t *testing.T) {
	g := chain(5)
	// Attacker 4 at the bottom of the chain, destination 0 at the top:
	// the bogus route climbs as a customer route and every source
	// prefers it (H = 0). Reversed (d=4, m=0) the bogus route descends
	// as a provider route and loses everywhere (H = 1).
	for _, model := range policy.Models {
		m0 := EvalMetric(g, model, policy.Standard, nil, []asgraph.AS{4}, []asgraph.AS{0}, 1)
		if m0.Lo != 0 || m0.Hi != 0 || m0.Pairs != 1 {
			t.Errorf("%v: H for (m=4,d=0) = [%v,%v], want 0", model, m0.Lo, m0.Hi)
		}
		m1 := EvalMetric(g, model, policy.Standard, nil, []asgraph.AS{0}, []asgraph.AS{4}, 1)
		if m1.Lo != 1 || m1.Hi != 1 {
			t.Errorf("%v: H for (m=0,d=4) = [%v,%v], want 1", model, m1.Lo, m1.Hi)
		}
	}
}

func TestEvalMetricSkipsSelfPairs(t *testing.T) {
	g := chain(4)
	M := []asgraph.AS{0, 1}
	D := []asgraph.AS{0}
	m := EvalMetric(g, policy.Sec3rd, policy.Standard, nil, M, D, 1)
	if m.Pairs != 1 {
		t.Errorf("pairs = %d, want 1 (m=d skipped)", m.Pairs)
	}
}

func TestEvalMetricParallelMatchesSerial(t *testing.T) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 400, Seed: 12})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	_ = tiers
	M, D := SamplePairs(asgraph.NonStubs(g), allASes(g), 10, 12)
	dep := &core.Deployment{Full: asgraph.SetOf(g.N(), asgraph.NonStubs(g)...)}
	for _, model := range policy.Models {
		serial := EvalMetric(g, model, policy.Standard, dep, M, D, 1)
		parallel := EvalMetric(g, model, policy.Standard, dep, M, D, 8)
		if math.Abs(serial.Lo-parallel.Lo) > 1e-12 || math.Abs(serial.Hi-parallel.Hi) > 1e-12 {
			t.Errorf("%v: parallel metric differs from serial: %+v vs %+v", model, parallel, serial)
		}
	}
}

func TestEvalMetricPerDestAggregation(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 300, Seed: 2})
	M, D := SamplePairs(asgraph.NonStubs(g), allASes(g), 8, 10)
	per := EvalMetricPerDest(g, policy.Sec3rd, policy.Standard, nil, M, D, 4)
	if len(per) != len(D) {
		t.Fatalf("per-dest results: %d, want %d", len(per), len(D))
	}
	var lo float64
	pairs := 0
	for _, pm := range per {
		lo += pm.Lo * float64(pm.Pairs)
		pairs += pm.Pairs
	}
	total := EvalMetric(g, policy.Sec3rd, policy.Standard, nil, M, D, 4)
	if math.Abs(total.Lo-lo/float64(pairs)) > 1e-12 {
		t.Errorf("per-dest aggregation %v != total %v", lo/float64(pairs), total.Lo)
	}
}

// partitionRows runs the partition walk destination-major.
func partitionRows(t *testing.T, g *asgraph.Graph, tiers *asgraph.Tiers, M, D []asgraph.AS, workers int) []int64 {
	t.Helper()
	rows, err := WalkPairs(context.Background(), D, M, workers, PartitionWidth, PartitionKernel(g, tiers, policy.Standard))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestEvalPartitionsFractionsSumToOne(t *testing.T) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 300, Seed: 8})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	M, D := SamplePairs(asgraph.NonStubs(g), allASes(g), 6, 8)
	pf, _ := FoldPartitions(SumRows(partitionRows(t, g, tiers, M, D, 4), PartitionWidth))
	for _, model := range policy.Models {
		sum := 0.0
		for cat := 0; cat < core.NumCategories; cat++ {
			sum += pf.Frac[model][cat]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v: partition fractions sum to %v", model, sum)
		}
		if pf.UpperBound(model) < pf.LowerBound(model) {
			t.Errorf("%v: upper bound below lower bound", model)
		}
	}
	// Security 1st must dominate: it has the fewest doomed ASes.
	if pf.Frac[policy.Sec1st][core.CatDoomed] > pf.Frac[policy.Sec2nd][core.CatDoomed]+1e-9 ||
		pf.Frac[policy.Sec2nd][core.CatDoomed] > pf.Frac[policy.Sec3rd][core.CatDoomed]+1e-9 {
		t.Error("doomed fractions should weakly increase from sec 1st to sec 3rd")
	}
}

// TestEvalPartitionsBucketed: grouping the walk's rows by destination
// tier loses no pair — Σ dest-tier pairs == |{(m,d): m≠d}| exactly.
func TestEvalPartitionsBucketed(t *testing.T) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 300, Seed: 8})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	M, D := SamplePairs(asgraph.NonStubs(g), allASes(g), 6, 10)
	rows := partitionRows(t, g, tiers, M, D, 4)
	var byTier [asgraph.NumTiers]int64
	for di, d := range D {
		byTier[tiers.TierOf(d)] += rows[(di+1)*PartitionWidth-1]
	}
	var totalPairs int64
	for _, pairs := range byTier {
		totalPairs += pairs
	}
	var want int64
	for _, d := range D {
		for _, m := range M {
			if m != d {
				want++
			}
		}
	}
	if totalPairs != want {
		t.Errorf("bucketed pairs = %d, want %d", totalPairs, want)
	}
}

func TestSamplePairs(t *testing.T) {
	xs := make([]asgraph.AS, 100)
	for i := range xs {
		xs[i] = asgraph.AS(i)
	}
	ms, ds := SamplePairs(xs, xs, 10, 0)
	if len(ms) != 10 {
		t.Errorf("sampled %d attackers, want 10", len(ms))
	}
	if len(ds) != 100 {
		t.Errorf("maxD=0 must keep all destinations, got %d", len(ds))
	}
	seen := map[asgraph.AS]bool{}
	for _, v := range ms {
		if seen[v] {
			t.Error("duplicate sample")
		}
		seen[v] = true
	}
	// Deterministic.
	ms2, _ := SamplePairs(xs, xs, 10, 0)
	for i := range ms {
		if ms[i] != ms2[i] {
			t.Error("sampling not deterministic")
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers must default to at least 1")
	}
	if Workers(5) != 5 {
		t.Error("explicit worker count ignored")
	}
}

func allASes(g *asgraph.Graph) []asgraph.AS {
	out := make([]asgraph.AS, g.N())
	for i := range out {
		out[i] = asgraph.AS(i)
	}
	return out
}
