package sweep

import (
	"bytes"
	"context"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// TestPoolFollowsSizeAndLP drives one EnginePool twice round a cycle of
// grids in which each job differs from the one before in graph size
// alone or in local-preference variant alone, so every job meets engines
// built for another (n, LP): each result must equal a fresh-pool
// evaluation byte for byte, and the pool must end holding no more than
// one state per worker — engines are replaced, not accumulated per size —
// none of which keeps the last job's graph alive.
func TestPoolFollowsSizeAndLP(t *testing.T) {
	small, large := randomHierarchy(3, 60), randomHierarchy(4, 150)
	jobs := []struct {
		name string
		g    *asgraph.Graph
		lp   policy.LocalPref
	}{
		{"n60/standard", small, policy.Standard},
		{"n60/LP2", small, policy.LP2},
		{"n150/LP2", large, policy.LP2},
		{"n150/standard", large, policy.Standard},
	}
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		pool := NewEnginePool()
		for round := 0; round < 2; round++ {
			for _, j := range jobs {
				gr := chainedGrid(j.g, IncrementalAuto)
				gr.LP, gr.Workers = j.lp, workers
				pl := mustPrepare(gr, j.g)
				fresh, err := pl.EvaluateSharded(ctx, ShardOptions{ShardSize: 16}, RunOptions{})
				want := resultJSON(t, fresh, err)
				pooled, err := pl.EvaluateSharded(ctx, ShardOptions{ShardSize: 16}, RunOptions{Pool: pool})
				pool.Release()
				if got := resultJSON(t, pooled, err); !bytes.Equal(got, want) {
					t.Fatalf("workers %d round %d %s: pooled result differs from a fresh-pool evaluation", workers, round, j.name)
				}
			}
		}
		if n := pool.Size(); n == 0 || n > workers {
			t.Errorf("workers %d: pool holds %d states after eight mixed jobs, want 1..%d", workers, n, workers)
		}
		for _, ws := range pool.free {
			if ws.eng != nil && ws.eng.Graph() != nil {
				t.Errorf("workers %d: an idle pooled engine still holds its last job's graph", workers)
			}
		}
	}
}
