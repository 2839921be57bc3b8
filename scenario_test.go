package sbgp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
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
// RunDeltaSeries equals per-step from-scratch runs (shrinking steps
// ride the signed removal delta), and a series interrupted by context
// cancellation leaves the simulation's engine clean for the next call.
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

// facadeDigest pins the serialized result of facadeSim's job. The
// digest, not one driver, is the evaluation facade tests' "want": Sweep
// and JobPlan share Simulation.grid, so a wiring bug there would move
// both sides of a driver-against-driver comparison together.
const facadeDigest = "99b62ff4875b05421d622a16532718e9b7ec661a9a156aeb0e44ec2cac041a5a"

// facadeSim builds a scenario of 6 attackers × 10 destinations × 3
// deployments × 2 models, 11 cells a shard, checkpointed to ckpt.
func facadeSim(t *testing.T, ckpt string, extra ...sbgp.Option) *sbgp.Simulation {
	sim, err := sbgp.NewScenario(append([]sbgp.Option{
		sbgp.WithGeneratedTopology(300, 5),
		sbgp.WithModels(sbgp.Sec2nd, sbgp.Sec3rd),
		sbgp.WithLocalPref(sbgp.LP2),
		sbgp.WithAttack(sbgp.PathPadding{Hops: 2}),
		sbgp.WithNamedDeployment("t2"),
		sbgp.WithDeployment("handpicked", sbgp.DeploymentSpec{NumTier2: 5, IncludeStubs: true}),
		sbgp.WithPairSampling(6, 10),
		sbgp.WithWorkers(2),
		sbgp.WithShardSize(11),
		sbgp.WithCheckpoint(ckpt),
	}, extra...)...).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func checkFacadeDigest(t *testing.T, what string, res *sbgp.Result, err error) {
	t.Helper()
	var b bytes.Buffer
	if err == nil {
		err = res.WriteJSON(&b)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); err != nil || got != facadeDigest {
		t.Errorf("%s: result sha256 %s (err %v), want %s", what, got, err, facadeDigest)
	}
}

// TestEvaluateJobMatchesSweep holds Sweep under either incremental mode
// and EvaluateJob on a warm EnginePool to the pinned bytes, and checks
// that the pool keeps its worker states and the Checkpoint override
// replaces the scenario's path.
func TestEvaluateJobMatchesSweep(t *testing.T) {
	dir := t.TempDir()
	ckpt, override := filepath.Join(dir, "sweep.ckpt"), filepath.Join(dir, "override.ckpt")
	var sim *sbgp.Simulation
	for _, mode := range []sbgp.IncrementalMode{sbgp.IncrementalOff, sbgp.IncrementalAuto} {
		sim = facadeSim(t, ckpt, sbgp.WithIncremental(mode))
		res, err := sim.Sweep(sim.JobPairs())
		checkFacadeDigest(t, fmt.Sprintf("Sweep, %v", mode), res, err)
	}
	pool := sbgp.NewEnginePool()
	for round := 0; round < 2; round++ {
		res, err := sim.EvaluateJob(sbgp.JobEvalOptions{Pool: pool, Checkpoint: override})
		pool.Release()
		checkFacadeDigest(t, fmt.Sprintf("EvaluateJob on a pool, round %d", round), res, err)
	}
	if pool.Size() == 0 {
		t.Error("engine pool retained no worker states")
	}
	if _, err := os.Stat(override); err != nil {
		t.Errorf("the Checkpoint override wrote no checkpoint: %v", err)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the scenario's checkpoint was written despite the override (stat: %v)", err)
	}
}

// TestEvaluateJobShardOptions checks that WithShardSize sets the shard
// count the sink sees, WithCheckpoint writes the checkpoint, and a
// second simulation WithResume reproduces the pinned bytes from the
// checkpoint alone, dispatching no unit.
func TestEvaluateJobShardOptions(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	sim, shards := facadeSim(t, ckpt), 0
	res, err := sim.EvaluateJob(sbgp.JobEvalOptions{
		Sink: func(*sbgp.ShardPartial) error { shards++; return nil },
	})
	checkFacadeDigest(t, "EvaluateJob", res, err)
	if cells, n, err := sim.JobGeometry(); err != nil || cells != 360 || n != 33 || shards != 33 {
		t.Errorf("WithShardSize(11): sink saw %d shards, JobGeometry (%d cells, %d shards, %v), want 33 of 360 cells",
			shards, cells, n, err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("WithCheckpoint wrote no checkpoint: %v", err)
	}
	var stats sbgp.ShardStats
	res, err = facadeSim(t, ckpt, sbgp.WithResume()).EvaluateJob(sbgp.JobEvalOptions{Stats: &stats})
	checkFacadeDigest(t, "resumed EvaluateJob", res, err)
	if stats.Units != 0 {
		t.Errorf("resumed EvaluateJob dispatched %d units, want 0 (every shard is in the checkpoint)", stats.Units)
	}
}

// TestEvaluationFacade holds repeated Evaluates of a simulation's job
// plan to the pinned bytes.
func TestEvaluationFacade(t *testing.T) {
	pl, err := facadeSim(t, filepath.Join(t.TempDir(), "sweep.ckpt")).JobPlan()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := pl.Evaluate(context.Background())
		checkFacadeDigest(t, fmt.Sprintf("Plan.Evaluate %d", i), res, err)
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
