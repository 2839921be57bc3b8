// Package runner is the parallel simulation harness (the paper's
// Appendix B/H parallelization, with goroutines in place of MPI). It
// executes routing-outcome and partition computations over sets of
// attacker-destination pairs, destination-major exactly as the paper
// describes: ForEach is the fan-out, EvalMetric the from-scratch oracle
// of the security metric H_{M,D}(S), and WalkPairs the pair walk whose
// kernels count partitions (here) and root causes (internal/rootcause).
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
)

// Workers resolves a worker-count argument: zero or negative means
// GOMAXPROCS.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Metric is the security metric H_{M,D}(S) of Section 4.1 with its
// tiebreak bounds: the average, over all attacker-destination pairs, of
// the fraction of happy source ASes.
type Metric struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Pairs int     `json:"pairs"`
}

// Delta returns the improvement of m over a baseline metric, as used
// throughout Section 5 (e.g. H(S) − H(∅)); bounds subtract pointwise.
func (m Metric) Delta(base Metric) Metric {
	return Metric{Lo: m.Lo - base.Lo, Hi: m.Hi - base.Hi, Pairs: m.Pairs}
}

// EvalMetric computes H_{M,D}(S) for the given model, local-preference
// variant, and deployment, over attackers M and destinations D (pairs
// with m == d are skipped, matching the metric's definition).
func EvalMetric(g *asgraph.Graph, model policy.Model, lp policy.LocalPref, dep *core.Deployment, M, D []asgraph.AS, workers int) Metric {
	per := EvalMetricPerDest(g, model, lp, dep, M, D, workers)
	var total Metric
	for _, pm := range per {
		total.Lo += pm.Lo * float64(pm.Pairs)
		total.Hi += pm.Hi * float64(pm.Pairs)
		total.Pairs += pm.Pairs
	}
	if total.Pairs > 0 {
		total.Lo /= float64(total.Pairs)
		total.Hi /= float64(total.Pairs)
	}
	return total
}

// EvalMetricPerDest computes H_{M,{d}}(S) for every destination d in D,
// i.e. the per-destination averages plotted in Figures 9, 10, and 12.
// The result is indexed like D.
func EvalMetricPerDest(g *asgraph.Graph, model policy.Model, lp policy.LocalPref, dep *core.Deployment, M, D []asgraph.AS, workers int) []Metric {
	out := make([]Metric, len(D))
	ForEach(nil, len(D), workers, func() *core.Engine {
		return core.NewEngineLP(g, model, lp)
	}, func(e *core.Engine, di int) {
		d := D[di]
		var lo, hi, pairs int
		for _, m := range M {
			if m == d {
				continue
			}
			o := e.Run(d, m, dep)
			l, h := o.HappyBounds()
			lo += l
			hi += h
			pairs++
		}
		if pairs > 0 {
			sources := float64(g.N() - 2)
			out[di] = Metric{
				Lo:    float64(lo) / (float64(pairs) * sources),
				Hi:    float64(hi) / (float64(pairs) * sources),
				Pairs: pairs,
			}
		}
	})
	return out
}

// PartitionFractions aggregates doomed/immune/protectable fractions per
// security model (Figure 3 and its by-tier variants).
type PartitionFractions struct {
	// Frac[model][category] is the average fraction of source ASes in
	// the category.
	Frac  [policy.NumModels][core.NumCategories]float64
	Pairs int
}

// UpperBound returns 1 − doomed fraction: the Section 4.4 upper bound on
// H for any deployment under the model.
func (p *PartitionFractions) UpperBound(m policy.Model) float64 {
	return 1 - p.Frac[m][core.CatDoomed]
}

// LowerBound returns the immune fraction: the Section 4.3 lower bound on
// H for any deployment under the model.
func (p *PartitionFractions) LowerBound(m policy.Model) float64 {
	return p.Frac[m][core.CatImmune]
}

// A partition row holds one block of (model, category) source counts per
// source tier, then the pair count.
const (
	partitionBlock = policy.NumModels * core.NumCategories
	PartitionWidth = asgraph.NumTiers*partitionBlock + 1
)

// PartitionKernel returns the WalkPairs kernel constructor of the
// partition analysis. A kernel owns one core.Partitioner, whose single
// S = ∅ run per pair yields all three models, and counts every source's
// category against the source's tier (Section 4.7's breakdown).
func PartitionKernel(g *asgraph.Graph, tiers *asgraph.Tiers, lp policy.LocalPref) func() PairKernel {
	return func() PairKernel {
		p := core.NewPartitioner(g, lp)
		return func(row []int64, d, m asgraph.AS) {
			part := p.Run(d, m)
			for v, t := range tiers.Of {
				if asgraph.AS(v) == d || asgraph.AS(v) == m {
					continue
				}
				block := row[int(t)*partitionBlock:]
				for model := range part.Cat {
					block[model*core.NumCategories+int(part.Cat[model][v])]++
				}
			}
			row[PartitionWidth-1]++
		}
	}
}

// FoldPartitions turns a partition row — one outer element's, or any
// sum of rows — into fractions of source ASes: over all sources, and
// over the sources of each tier (indexed by tier).
func FoldPartitions(row []int64) (all PartitionFractions, bySourceTier []PartitionFractions) {
	blocks, pairs := row[:PartitionWidth-1], int(row[PartitionWidth-1])
	for t := 0; t < asgraph.NumTiers; t++ {
		bySourceTier = append(bySourceTier, blockFractions(blocks[t*partitionBlock:], pairs))
	}
	return blockFractions(SumRows(blocks, partitionBlock), pairs), bySourceTier
}

// blockFractions normalises each model's category counts by the sources
// counted (every source falls in exactly one category).
func blockFractions(block []int64, pairs int) PartitionFractions {
	pf := PartitionFractions{Pairs: pairs}
	for model := range pf.Frac {
		c := block[model*core.NumCategories:][:core.NumCategories]
		if sources := c[0] + c[1] + c[2]; sources > 0 {
			for cat, x := range c {
				pf.Frac[model][cat] = float64(x) / float64(sources)
			}
		}
	}
	return pf
}

// chunkTarget is the number of chunks each worker should see on
// average: high enough to smooth out uneven per-index cost, low enough
// that contention on the shared cursor is negligible.
const chunkTarget = 8

// ChunkSize is the dispatch granularity for n items over w workers: the
// run of consecutive items a worker claims at a time, sized so each
// worker sees chunkTarget chunks on average and never below one item.
// The sharded sweep sizes its dispatch strips (in cells) by the same
// rule, so both fan-outs balance alike.
func ChunkSize(n, w int) int {
	return max(1, n/(w*chunkTarget))
}

// ForEach fans indices 0..n-1 out to a worker pool. newState builds one
// reusable typed per-worker state (an engine or partitioner, which are
// not goroutine-safe); fn must be safe to call concurrently for
// distinct indices. Indices are handed out in contiguous chunks via a
// single atomic cursor, so dispatch costs one atomic add per chunk
// rather than one channel send per index. Any per-index result written
// to a caller-owned slice is positionally deterministic: the same
// inputs produce the same outputs at every worker count.
//
// Cancelling ctx stops the dispatch promptly: every worker re-checks
// the context before each index, finishes the index it is on, and
// ForEach returns ctx.Err(). Indices not yet dispatched never run, so
// on cancellation the caller's partial results must be discarded. A nil
// ctx means context.Background() (never cancelled); the error is then
// always nil.
//
//sbgp:hotpath
func ForEach[T any](ctx context.Context, n, workers int, newState func() T, fn func(state T, di int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		// Fully inline serial path: no goroutines and no allocations,
		// so a warm caller's steady state stays allocation-free. The
		// parallel body lives in its own function because its cursor
		// and WaitGroup are captured by the worker closures and would
		// otherwise be heap-allocated here even when never used.
		if n > 0 {
			state := newState()
			for di := 0; di < n; di++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				fn(state, di)
			}
		}
		return ctx.Err()
	}
	return forEachParallel(ctx, n, w, newState, fn)
}

// forEachParallel is ForEach's worker-pool body for w > 1.
func forEachParallel[T any](ctx context.Context, n, w int, newState func() T, fn func(state T, di int)) error {
	chunk := ChunkSize(n, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for {
				start := int(next.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for di := start; di < end; di++ {
					if ctx.Err() != nil {
						return
					}
					fn(state, di)
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// AllASes returns the full population 0..n-1 — the destination set
// D = V (and, with stubs, the attacker set) of the paper's full |V|²
// enumeration (Appendix H), which the sharded sweep path evaluates
// without sampling.
func AllASes(n int) []asgraph.AS {
	out := make([]asgraph.AS, n)
	for i := range out {
		out[i] = asgraph.AS(i)
	}
	return out
}

// SamplePairs deterministically samples up to maxM attackers and maxD
// destinations from the given candidate sets, using a fixed stride so
// results are reproducible without materializing a PRNG. Pass
// maxM/maxD ≤ 0 to keep the whole set. It is the stand-in for the
// paper's full |V|² enumeration on BlueGene (Appendix H).
func SamplePairs(M, D []asgraph.AS, maxM, maxD int) (ms, ds []asgraph.AS) {
	return sampleStride(M, maxM), sampleStride(D, maxD)
}

func sampleStride(xs []asgraph.AS, max int) []asgraph.AS {
	if max <= 0 || len(xs) <= max {
		return xs
	}
	out := make([]asgraph.AS, 0, max)
	stride := float64(len(xs)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, xs[int(float64(i)*stride)])
	}
	return out
}
