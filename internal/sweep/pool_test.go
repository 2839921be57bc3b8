package sweep

import (
	"context"
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// TestPoolFollowsSizeAndLP drives one EnginePool twice round a cycle of
// grids in which each job differs from the one before in graph size
// alone or in local-preference variant alone, so every job meets engines
// built for another (n, LP): each result must match the oracle, and the
// pool must end holding no more than
// one state per worker — engines are replaced, not accumulated per size —
// none of which keeps the last job's graph alive.
func TestPoolFollowsSizeAndLP(t *testing.T) {
	small := topogen.Hierarchy(60, rand.New(rand.NewSource(3)).Intn)
	large := topogen.Hierarchy(150, rand.New(rand.NewSource(4)).Intn)
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
	oracles := map[string]*oracle{}
	for _, j := range jobs {
		gr := chainedGrid(j.g, IncrementalAuto)
		gr.LP = j.lp
		oracles[j.name] = newOracle(gr, j.g)
	}
	for _, workers := range []int{1, 3} {
		pool := NewEnginePool()
		for round := 0; round < 2; round++ {
			for _, j := range jobs {
				gr := chainedGrid(j.g, IncrementalAuto)
				gr.LP, gr.Workers = j.lp, workers
				res, err := mustPrepare(gr, j.g).EvaluateSharded(ctx, ShardOptions{ShardSize: 16}, RunOptions{Pool: pool})
				pool.Release()
				oracles[j.name].check(t, res, err)
			}
		}
		if n := pool.Size(); n == 0 || n > workers {
			t.Errorf("workers %d: pool holds %d states after eight mixed jobs, want 1..%d", workers, n, workers)
		}
		for range pool.Size() {
			if ws := pool.get(); ws.eng != nil && ws.eng.Graph() != nil {
				t.Errorf("workers %d: an idle pooled engine still holds its last job's graph", workers)
			}
		}
	}
}
