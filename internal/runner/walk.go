package runner

import (
	"context"

	"sbgp/internal/asgraph"
)

// PairKernel adds one pair's counts into row, the fixed-width integer row
// of the pair's outer element. A kernel owns its scratch (an engine, a
// partitioner) and serves one worker.
type PairKernel func(row []int64, o, i asgraph.AS)

// WalkPairs is the pair walk of the analyses beside the sweep grid —
// partitions (Section 4.3) and root-cause accounting (Section 6), which
// have no (deployment, model) cell for a sweep Plan to schedule. It fans
// outer out over ForEach — destination-major when outer is D, as in
// Appendix H — with one kernel per worker adding every pair (o, i), i ≠ o,
// into o's row. The result holds width columns per outer element, indexed
// like outer: integers written by position, so identical at every worker
// count. A cancelled ctx returns ctx.Err() and no rows.
func WalkPairs(ctx context.Context, outer, inner []asgraph.AS, workers, width int, newKernel func() PairKernel) ([]int64, error) {
	rows := make([]int64, len(outer)*width)
	err := ForEach(ctx, len(outer), workers, newKernel, func(kernel PairKernel, oi int) {
		walkRow(kernel, rows[oi*width:(oi+1)*width], outer[oi], inner)
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// walkRow runs one outer element's pairs.
//
//sbgp:hotpath
func walkRow(kernel PairKernel, row []int64, o asgraph.AS, inner []asgraph.AS) {
	for _, i := range inner {
		if i != o {
			kernel(row, o, i)
		}
	}
}

// SumRows folds a walk's rows into one row: the whole pair set's counts.
func SumRows(rows []int64, width int) []int64 {
	sum := make([]int64, width)
	for i, c := range rows {
		sum[i%width] += c
	}
	return sum
}
