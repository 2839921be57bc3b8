package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// mustPrepare plans a statically well-formed grid.
func mustPrepare(gr *Grid, g *asgraph.Graph) *Plan {
	pl, err := gr.Prepare(g)
	if err != nil {
		panic(err)
	}
	return pl
}

// mustEvaluate is the in-memory evaluation of a statically well-formed
// grid.
func mustEvaluate(gr *Grid, g *asgraph.Graph) *Result {
	res, err := mustPrepare(gr, g).Evaluate(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

// evaluateSharded plans gr on g and evaluates it under opts.
func evaluateSharded(ctx context.Context, gr *Grid, g *asgraph.Graph, opts ShardOptions) (*Result, error) {
	pl, err := gr.Prepare(g)
	if err != nil {
		return nil, err
	}
	return pl.EvaluateSharded(ctx, opts, RunOptions{})
}

// walkCount is what one evaluation's walk did: the valid cells it
// visited and the engine calls it made for them. The two differ by the
// cells the baseline memo served.
type walkCount struct{ cells, runs int }

// evaluateCounted is evaluateSharded, counting its walk.
func evaluateCounted(ctx context.Context, gr *Grid, g *asgraph.Graph, opts ShardOptions) (*Result, walkCount, error) {
	var st ShardStats
	res, err := mustPrepare(gr, g).EvaluateSharded(ctx, opts, RunOptions{Stats: &st})
	return res, walkOf(st), err
}

// walkOf reads the walk from an evaluation's stats: every valid cell is
// a memo hit, a from-scratch run, a delta step or a no-op, and a fallback
// is a from-scratch run made for a RunDelta call.
func walkOf(st ShardStats) walkCount {
	runs := st.Runs + st.DeltaSteps + st.NoOps
	return walkCount{cells: st.MemoHits + runs, runs: runs}
}

func testGrid(t *testing.T, g *asgraph.Graph, workers int) *Grid {
	t.Helper()
	all := make([]asgraph.AS, g.N())
	for i := range all {
		all[i] = asgraph.AS(i)
	}
	M, D := runner.SamplePairs(asgraph.NonStubs(g), all, 8, 10)
	full := asgraph.SetOf(g.N(), asgraph.NonStubs(g)...)
	return &Grid{
		Deployments: []Deployment{
			{Name: "baseline"},
			{Name: "nonstubs", Dep: &core.Deployment{Full: full}},
		},
		Attackers:    M,
		Destinations: D,
		PerDest:      true,
		Workers:      workers,
	}
}

// TestSweepMatchesRunner pins the grid evaluator to the metric the
// runner computes directly, cell by cell and destination by
// destination.
func TestSweepMatchesRunner(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 5})
	grid := testGrid(t, g, 0)
	res := mustEvaluate(grid, g)
	if len(res.Cells) != len(grid.Deployments)*policy.NumModels {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(grid.Deployments)*policy.NumModels)
	}
	for _, dp := range grid.Deployments {
		for _, model := range policy.Models {
			cell := res.Cell(dp.Name, model)
			if cell == nil {
				t.Fatalf("missing cell %s/%v", dp.Name, model)
			}
			want := runner.EvalMetric(g, model, grid.LP, dp.Dep, grid.Attackers, grid.Destinations, 0)
			if math.Abs(cell.Metric.Lo-want.Lo) > 1e-12 || math.Abs(cell.Metric.Hi-want.Hi) > 1e-12 ||
				cell.Metric.Pairs != want.Pairs {
				t.Errorf("%s/%v: sweep metric %+v != runner metric %+v", dp.Name, model, cell.Metric, want)
			}
			wantPer := runner.EvalMetricPerDest(g, model, grid.LP, dp.Dep, grid.Attackers, grid.Destinations, 0)
			for di := range wantPer {
				got := cell.PerDest[di]
				if math.Abs(got.Lo-wantPer[di].Lo) > 1e-12 || got.Pairs != wantPer[di].Pairs {
					t.Errorf("%s/%v dest %d: per-dest %+v != %+v", dp.Name, model, di, got, wantPer[di])
				}
			}
		}
	}
}

// TestSweepAttackAxis checks that the grid threads a non-default Attack
// through to every cell: under NoAttack the metric is the happiness of
// normal conditions (every source routed to d is happy), and the attack
// name appears in the serialized result exactly when non-default.
func TestSweepAttackAxis(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 300, Seed: 4})
	grid := testGrid(t, g, 0)
	grid.Attack = core.NoAttack{}
	res := mustEvaluate(grid, g)
	if res.Attack != "none" {
		t.Errorf("result names attack %q, want %q", res.Attack, "none")
	}
	for _, cell := range res.Cells {
		// With no bogus announcement nothing distinguishes the bounds,
		// and on a connected graph every source reaches d.
		if cell.Metric.Lo != cell.Metric.Hi {
			t.Errorf("%s/%s: no-attack bounds differ: %+v", cell.Deployment, cell.Model, cell.Metric)
		}
		if cell.Metric.Lo != 1 {
			t.Errorf("%s/%s: no-attack happiness %v, want 1", cell.Deployment, cell.Model, cell.Metric.Lo)
		}
	}

	grid.Attack = core.OneHopHijack{}
	if res := mustEvaluate(grid, g); res.Attack != "" {
		t.Errorf("default attack serialized as %q, want omitted", res.Attack)
	}
}

// TestEvaluateContextCancellation is the acceptance contract: a grid
// evaluation whose context is cancelled mid-flight returns ctx.Err()
// promptly with no partial result, and a pre-cancelled context never
// starts work.
func TestEvaluateContextCancellation(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 600, Seed: 6})
	grid := testGrid(t, g, 4)
	// Blow the grid up so a full evaluation takes far longer than the
	// cancellation lead time.
	all := make([]asgraph.AS, g.N())
	for i := range all {
		all[i] = asgraph.AS(i)
	}
	grid.Attackers, grid.Destinations = asgraph.NonStubs(g), all

	pl := mustPrepare(grid, g)
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if res, err := pl.Evaluate(pre); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled: got (%v, %v), want (nil, context.Canceled)", res, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := pl.Evaluate(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("mid-grid cancel: got (%v, %v), want (nil, context.Canceled)", res, err)
	}
	// A worker only finishes the (deployment, model, destination) task
	// it is on — seconds of grid remain, so returning quickly proves
	// the cancellation propagated rather than the grid completing.
	if elapsed > 10*time.Second {
		t.Errorf("cancelled evaluation took %v, want a prompt return", elapsed)
	}
}

// TestNilContext: a nil context means "never cancelled" in the Plan's
// loop, as it does in runner.ForEach — RunShards is the one place that
// normalises it, for Evaluate and for every sharded entry point alike.
func TestNilContext(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 100, Seed: 2})
	pl := mustPrepare(&Grid{Attackers: []asgraph.AS{1, 2}, Destinations: []asgraph.AS{0, 3}}, g)
	o := newOracle(&pl.gr, g)
	//lint:ignore SA1012 the nil context is the case under test
	res, err := pl.Evaluate(nil)
	o.check(t, res, err)
	l := pl.Layout(3)
	store, err := OpenCheckpointWriter("", l, false)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore SA1012 the nil context is the case under test
	err = pl.RunShards(nil, l, store.Missing(), RunOptions{}, func(p *ShardPartial) error {
		_, err := store.Add(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = pl.Result(store)
	o.check(t, res, err)
}

// TestSweepDefaultsAndErrors covers axis defaulting and the malformed-
// grid errors.
func TestSweepDefaultsAndErrors(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 100, Seed: 2})
	grid := &Grid{
		Attackers:    []asgraph.AS{1, 2},
		Destinations: []asgraph.AS{0, 3},
	}
	res := mustEvaluate(grid, g)
	if len(res.Cells) != policy.NumModels {
		t.Errorf("defaulted grid has %d cells, want %d", len(res.Cells), policy.NumModels)
	}
	if res.Cells[0].Deployment != "baseline" {
		t.Errorf("default deployment named %q", res.Cells[0].Deployment)
	}

	if _, err := (&Grid{}).Prepare(g); err == nil {
		t.Error("empty grid must fail")
	}
	bad := &Grid{
		Deployments:  []Deployment{{Name: "x"}, {Name: "x"}},
		Attackers:    []asgraph.AS{1},
		Destinations: []asgraph.AS{0},
	}
	if _, err := bad.Prepare(g); err == nil {
		t.Error("duplicate deployment name must fail")
	}
}

// TestParseIncrementalMode covers the two modes and every accepted
// input spelling — "on" and the boolean aliases, which spec files and
// persisted job records may still hold, canonicalise to auto/off — and
// pins the error contract: a rejected value yields an error naming the
// offending token and every valid spelling (aliases included).
func TestParseIncrementalMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want IncrementalMode
	}{
		{"", IncrementalAuto}, {"auto", IncrementalAuto}, {"AUTO", IncrementalAuto},
		{"on", IncrementalAuto}, {"true", IncrementalAuto}, {"1", IncrementalAuto}, {"yes", IncrementalAuto},
		{"off", IncrementalOff}, {"false", IncrementalOff}, {"0", IncrementalOff}, {"No", IncrementalOff},
	} {
		m, err := ParseIncrementalMode(tc.in)
		if err != nil {
			t.Errorf("ParseIncrementalMode(%q): %v", tc.in, err)
			continue
		}
		if m != tc.want {
			t.Errorf("ParseIncrementalMode(%q) = %v, want %v", tc.in, m, tc.want)
		}
		if s := m.String(); s != "auto" && s != "off" {
			t.Errorf("ParseIncrementalMode(%q) canonicalises to %q, want auto or off", tc.in, s)
		}
	}
	for _, bad := range []string{"maybe", "2", "enabled", "on "} {
		_, err := ParseIncrementalMode(bad)
		if err == nil {
			t.Errorf("ParseIncrementalMode(%q) succeeded, want error", bad)
			continue
		}
		msg := err.Error()
		for _, want := range []string{fmt.Sprintf("%q", bad), `"auto"`, `"on"`, `"true"`, `"yes"`, `"off"`, `"false"`, `"no"`} {
			if !strings.Contains(msg, want) {
				t.Errorf("ParseIncrementalMode(%q) error %q does not mention %s", bad, msg, want)
			}
		}
	}
}
