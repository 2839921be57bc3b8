package sbgp_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sbgp"
	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/runner"
)

// TestScenarioEndToEnd drives the scenario layer the way its consumers
// do: declare a scenario, materialize it, run one pair, evaluate a sweep.
func TestScenarioEndToEnd(t *testing.T) {
	attack, err := sbgp.ParseAttack("pad-2")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(400, 3),
		sbgp.WithModel(sbgp.Sec2nd),
		sbgp.WithNamedDeployment("t1t2"),
		sbgp.WithAttack(attack),
		sbgp.WithWorkers(2),
	).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Graph().N() != 400 {
		t.Fatalf("graph has %d ASes, want 400", sim.Graph().N())
	}
	if sim.Deployment() == nil || sim.Deployment().SecureCount() == 0 {
		t.Fatal("named deployment t1t2 not materialized")
	}

	out, err := sim.Run(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dst != 0 || out.Attacker != 7 {
		t.Fatalf("outcome for (d=%d, m=%d), want (0, 7)", out.Dst, out.Attacker)
	}
	// The padded attacker claims a 2-hop path.
	if out.Len[7] != 2 || out.Label[7] != core.LabelAttacker {
		t.Errorf("attacker root = (len %d, %v), want the pad-2 seed", out.Len[7], out.Label[7])
	}

	normal, err := sim.RunNormal(0)
	if err != nil {
		t.Fatal(err)
	}
	if normal.Attacker != sbgp.NoAS {
		t.Errorf("RunNormal outcome has attacker %d", normal.Attacker)
	}

	M, _ := runner.SamplePairs(asgraph.NonStubs(sim.Graph()), nil, 4, 0)
	dests := []sbgp.AS{0, 1, 2}
	res, err := sim.Sweep(M, dests)
	if err != nil {
		t.Fatal(err)
	}
	// baseline + t1t2, all three models by default.
	if len(res.Cells) != 2*sbgp.NumModels {
		t.Fatalf("sweep has %d cells, want %d", len(res.Cells), 2*sbgp.NumModels)
	}
	if res.Attack != "pad-2" {
		t.Errorf("sweep result names attack %q, want pad-2", res.Attack)
	}
	if c := res.Cell("t1t2", sbgp.Sec2nd); c == nil {
		t.Error("missing t1t2/security 2nd cell")
	}

	// Invalid runs are rejected, not panicked.
	if _, err := sim.Run(0, 0); err == nil {
		t.Error("d == m accepted")
	}
	if _, err := sim.Run(100000, 1); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

// TestScenarioConfigErrors: configuration mistakes surface as Simulate
// errors, not panics or silent misconfigurations.
func TestScenarioConfigErrors(t *testing.T) {
	if _, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(100, 1),
		sbgp.WithGraphFile("nope.graph"),
	).Simulate(); err == nil {
		t.Error("two topology sources accepted")
	}
	if _, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(100, 1),
		sbgp.WithNamedDeployment("bogus"),
	).Simulate(); err == nil {
		t.Error("unknown named deployment accepted")
	}
	if _, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(100, 1),
		sbgp.WithDeployment("x", sbgp.DeploymentSpec{AllNonStubs: true}),
		sbgp.WithDeployment("x", sbgp.DeploymentSpec{NumTier2: 5}),
	).Simulate(); err == nil {
		t.Error("duplicate deployment name accepted")
	}
	if _, err := sbgp.NewScenario(sbgp.WithGraphFile("/does/not/exist")).Simulate(); err == nil {
		t.Error("missing graph file accepted")
	}
	// The option-built spelling of an unbounded "lpk": refused before any
	// engine compiles an O(K) stage plan.
	if _, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(100, 1),
		sbgp.WithLocalPref(sbgp.LocalPref{K: 200000}),
	).Simulate(); err == nil || !strings.Contains(err.Error(), "outside [0, 64]") {
		t.Errorf("LP200000 scenario: %v, want an error naming the lpk bound", err)
	}
	// Likewise an unbounded worker count: one engine per worker, and
	// strips shrink to a cell each.
	if _, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(100, 1),
		sbgp.WithWorkers(100000),
	).Simulate(); err == nil || !strings.Contains(err.Error(), "workers=100000 is outside [0, 1024]") {
		t.Errorf("100000-worker scenario: %v, want an error naming the workers bound", err)
	}
}

// TestScenarioCancellation: the scenario context gates Simulate, single
// runs, and sweeps.
func TestScenarioCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(100, 1),
		sbgp.WithContext(cancelled),
	).Simulate(); !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate under a cancelled context: %v, want context.Canceled", err)
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	sim, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(600, 2),
		sbgp.WithNamedDeployment("nonstubs"),
		sbgp.WithContext(ctx),
	).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]sbgp.AS, sim.Graph().N())
	for i := range all {
		all[i] = sbgp.AS(i)
	}
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancelMid()
	}()
	res, err := sim.Sweep(asgraph.NonStubs(sim.Graph()), all)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("cancelled sweep returned (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if _, err := sim.Run(0, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Run after cancellation: %v, want context.Canceled", err)
	}
}

// TestIncrementalFacade drives the incremental surface end to end:
// incremental sweeps (the default) and the explicit off override match
// each other byte for byte, RunDeltaSeries equals per-step
// from-scratch runs (shrinking steps ride the signed removal delta),
// and a series interrupted by context cancellation leaves the
// simulation's engine clean for the next call.
func TestIncrementalFacade(t *testing.T) {
	newSim := func(opts ...sbgp.Option) *sbgp.Simulation {
		sim, err := sbgp.NewScenario(append([]sbgp.Option{
			sbgp.WithGeneratedTopology(400, 3),
			sbgp.WithNamedDeployment("t2"),
			sbgp.WithNamedDeployment("t1t2"),
			sbgp.WithNamedDeployment("nonstubs"),
		}, opts...)...).Simulate()
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	plain := newSim(sbgp.WithIncremental(sbgp.IncrementalOff))
	inc := newSim()
	M, D := runner.SamplePairs(asgraph.NonStubs(plain.Graph()), runner.AllASes(plain.Graph().N()), 6, 8)

	want, err := plain.Sweep(M, D)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Sweep(M, D)
	if err != nil {
		t.Fatal(err)
	}
	var wb, gb bytes.Buffer
	if err := want.WriteJSON(&wb); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSON(&gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Error("the default incremental sweep diverges from the IncrementalOff evaluation")
	}

	// RunDeltaSeries over a nested series with one deliberate shrinking
	// step: the t2 deployment after nonstubs walks the set back down,
	// exercising the signed removal delta mid-series.
	tiers := inc.Tiers()
	g := inc.Graph()
	series := []*sbgp.Deployment{
		nil,
		deploy.Build(g, tiers, deploy.Spec{NumTier2: 13, IncludeStubs: true}),
		deploy.Build(g, tiers, deploy.Spec{NumTier2: 50, IncludeStubs: true}),
		deploy.Build(g, tiers, deploy.Spec{AllNonStubs: true}),
		deploy.Build(g, tiers, deploy.Spec{NumTier2: 26, IncludeStubs: true}),
	}
	d, m := D[0], M[0]
	if d == m {
		d = D[1]
	}
	outs, err := inc.RunDeltaSeries(d, m, series)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(series) {
		t.Fatalf("RunDeltaSeries returned %d outcomes, want %d", len(outs), len(series))
	}
	for i, dep := range series {
		ref, err := plain.RunWith(plain.Model(), d, m, dep)
		if err != nil {
			t.Fatal(err)
		}
		for v := range ref.Class {
			if outs[i].Class[v] != ref.Class[v] || outs[i].Len[v] != ref.Len[v] ||
				outs[i].Secure[v] != ref.Secure[v] || outs[i].Label[v] != ref.Label[v] ||
				outs[i].Next[v] != ref.Next[v] {
				t.Fatalf("series step %d diverges from a from-scratch run at AS%d", i, v)
			}
		}
	}

	// An already-cancelled context aborts the series before any engine
	// work (a cancelled Simulation is permanently unusable, so there is
	// no same-simulation "after cancel" to test here).
	ctx, cancel := context.WithCancel(context.Background())
	cancelable := newSim(sbgp.WithContext(ctx))
	cancel()
	if _, err := cancelable.RunDeltaSeries(d, m, series); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunDeltaSeries returned %v, want context.Canceled", err)
	}
	// Interruption cleanliness on a live simulation: a series cut short
	// at step k leaves the cached engine in exactly the state a
	// mid-series cancellation would (k chained delta runs, mid-chain
	// outcome retained), so running a truncated series and then a
	// different full one on the same simulation pins that no state
	// leaks across series.
	if _, err := inc.RunDeltaSeries(d, m, series[:2]); err != nil {
		t.Fatal(err)
	}
	outs2, err := inc.RunDeltaSeries(d, m, series[:3])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.RunWith(plain.Model(), d, m, series[2])
	if err != nil {
		t.Fatal(err)
	}
	last := outs2[2]
	for v := range ref.Class {
		if last.Label[v] != ref.Label[v] || last.Len[v] != ref.Len[v] {
			t.Fatalf("post-interruption series diverges at AS%d", v)
		}
	}
}

// TestEvaluateJobShardOptions drives the sharded evaluation through the
// scenario surface: WithShardSize and WithCheckpoint configure the run,
// EvaluateJob matches Sweep byte for byte, and a second simulation
// WithResume reproduces the result from the checkpoint instead of
// re-evaluating.
func TestEvaluateJobShardOptions(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	opts := func(extra ...sbgp.Option) []sbgp.Option {
		return append([]sbgp.Option{
			sbgp.WithGeneratedTopology(300, 5),
			sbgp.WithNamedDeployment("t2"),
			sbgp.WithPairSampling(6, 10),
			sbgp.WithShardSize(11),
			sbgp.WithCheckpoint(ckpt),
		}, extra...)
	}
	jsonOf := func(res *sbgp.Result) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	sim, err := sbgp.NewScenario(opts()...).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sim.Sweep(sim.JobPairs())
	if err != nil {
		t.Fatal(err)
	}
	want := jsonOf(plain)

	shards := 0
	sharded, err := sim.EvaluateJob(sbgp.JobEvalOptions{
		Sink: func(*sbgp.ShardPartial) error { shards++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonOf(sharded), want) {
		t.Error("EvaluateJob diverges from Sweep")
	}
	// 6 attackers × 10 destinations × 2 deployments × 3 models, 11 a shard.
	if wantShards := (6*10*2*3 + 10) / 11; shards != wantShards {
		t.Errorf("WithShardSize(11) cut the job into %d shards, want %d", shards, wantShards)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("WithCheckpoint wrote no checkpoint: %v", err)
	}

	// A fresh simulation resuming the same scenario reproduces the
	// result from the checkpoint alone: no shard is left to dispatch.
	sim2, err := sbgp.NewScenario(opts(sbgp.WithResume())...).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	var stats sbgp.ShardStats
	resumed, err := sim2.EvaluateJob(sbgp.JobEvalOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonOf(resumed), want) {
		t.Error("resumed EvaluateJob diverges from the original Sweep")
	}
	if stats.Units != 0 {
		t.Errorf("resumed EvaluateJob dispatched %d units, want 0 (every shard is in the checkpoint)", stats.Units)
	}
}

// TestEvaluationFacade exercises the Plan the layer hands out: repeated
// Evaluates of a simulation's job plan match Sweep over the job pairs
// exactly, run after run.
func TestEvaluationFacade(t *testing.T) {
	sim, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(200, 4),
		sbgp.WithModels(sbgp.Sec2nd),
		sbgp.WithPairSampling(8, 8),
		sbgp.WithWorkers(2),
	).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Sweep(sim.JobPairs())
	if err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	if err := want.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	pl, err := sim.JobPlan()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := pl.Evaluate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("Plan.Evaluate %d diverges from Sweep", i)
		}
	}
}

// TestNamedDeploymentsAreRolloutEndpoints pins what the headline grid's
// named deployments mean: "t1t2" and "t2" are the last steps of the
// Tier 1+2 and Tier 2 rollouts of Section 5.2, and "nonstubs" is every
// non-stub AS — member for member, validating and signing alike.
func TestNamedDeploymentsAreRolloutEndpoints(t *testing.T) {
	base, err := sbgp.NewScenario(sbgp.WithGeneratedTopology(300, 7)).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	g, tiers := base.Graph(), base.Tiers()
	last := func(steps []deploy.Step) *sbgp.Deployment { return steps[len(steps)-1].Deployment }
	for name, want := range map[string]*sbgp.Deployment{
		"t1t2":     last(deploy.Tier12Rollout(g, tiers, false)),
		"t2":       last(deploy.Tier2Rollout(g, tiers, false)),
		"nonstubs": deploy.Build(g, tiers, deploy.Spec{AllNonStubs: true}),
	} {
		sim, err := sbgp.NewScenario(sbgp.WithGraph(g, base.Meta()), sbgp.WithNamedDeployment(name)).Simulate()
		if err != nil {
			t.Fatal(err)
		}
		got := sim.Deployment()
		for v := sbgp.AS(0); int(v) < g.N(); v++ {
			if got.FullSecure(v) != want.FullSecure(v) || got.OriginSecure(v) != want.OriginSecure(v) {
				t.Fatalf("%s: AS%d is (full %v, signing %v), the rollout endpoint has (%v, %v)",
					name, v, got.FullSecure(v), got.OriginSecure(v), want.FullSecure(v), want.OriginSecure(v))
			}
		}
		if got.SecureCount() == 0 {
			t.Errorf("%s: empty deployment", name)
		}
	}
}
