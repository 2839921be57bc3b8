package sweep

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// TestBaselineMemo pins the memo's word format and bound: an empty slot
// is distinguishable from a stored (0, 0), 31-bit counts round-trip, a
// pair beyond the bound is silently not memoized, and a recycled memo
// comes back empty.
func TestBaselineMemo(t *testing.T) {
	m := baselineMemo(nil).sized(4)
	if _, _, ok := m.load(1); ok {
		t.Fatal("fresh memo reports a stored pair")
	}
	const top = 1<<31 - 1
	m.store(1, 0, 0)
	m.store(2, top-1, top)
	m.store(9, 5, 6) // beyond len: dropped
	for _, c := range []struct {
		pair, lo, hi int
		ok           bool
	}{{0, 0, 0, false}, {1, 0, 0, true}, {2, top - 1, top, true}, {9, 0, 0, false}} {
		if lo, hi, ok := m.load(c.pair); lo != c.lo || hi != c.hi || ok != c.ok {
			t.Errorf("load(%d) = (%d, %d, %v), want (%d, %d, %v)", c.pair, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
	r := m.sized(3)
	if &r[0] != &m[0] || len(r) != 3 {
		t.Error("sized did not reuse the backing array it was given")
	}
	for i := range r {
		if _, _, ok := r.load(i); ok {
			t.Errorf("recycled memo still holds pair %d", i)
		}
	}
	if got := len(m.sized(maxMemoPairs + 5)); got != maxMemoPairs {
		t.Errorf("memo for %d pairs has %d slots, want the bound %d", maxMemoPairs+5, got, maxMemoPairs)
	}
}

// TestBaselineMemoSharedByWorkers hammers one memo from eight
// goroutines — bare loads and stores first, then a whole evaluation
// whose every (attacker, destination) pair is reached by several workers
// at once — and is meaningful under -race: the memo is the one piece of
// evaluation state workers share without the commit mutex. Writers of a
// slot all store the same value, so the result must equal the
// one-worker bytes and the collapse must still fire.
func TestBaselineMemoSharedByWorkers(t *testing.T) {
	const workers, pairs = 8, 16
	m := baselineMemo(nil).sized(pairs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				pair := (i + w) % pairs
				if lo, hi, ok := m.load(pair); ok && (lo != pair || hi != 2*pair) {
					t.Errorf("pair %d reads (%d, %d), every writer stored (%d, %d)", pair, lo, hi, pair, 2*pair)
					return
				}
				m.store(pair, pair, 2*pair)
			}
		}()
	}
	wg.Wait()

	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 17})
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 6, 8)
	grid := func(w int) *Grid {
		// The identity order over a rollout axis: every cell is a chain
		// head, the model axis is outermost in each deployment's block, so
		// workers on different strips ask for the same pairs all the time.
		return &Grid{Deployments: rolloutDeployments(g, 5), Attackers: M, Destinations: D, Incremental: IncrementalOff, Workers: w}
	}
	want := resultJSON(t, mustEvaluate(grid(1), g), nil)
	for rep := 0; rep < 4; rep++ {
		res, walk, err := evaluateCounted(context.Background(), grid(workers), g, ShardOptions{ShardSize: 5})
		if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
			t.Fatalf("rep %d: %d workers sharing one memo diverge from one worker", rep, workers)
		}
		if walk.runs >= walk.cells {
			t.Fatalf("rep %d: %d engine runs for %d cells: the memo never served a cell", rep, walk.runs, walk.cells)
		}
	}
}
