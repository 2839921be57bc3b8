// Command experiments regenerates every table and figure of the paper's
// evaluation (the experiment index E1–E27 of DESIGN.md) on a synthetic
// workload and prints the measured values next to the numbers the paper
// reports for the UCLA graph. It simulates one sbgp.Scenario — the
// headline job the grid flags spell — and hands that Simulation to both
// the grid writer and the experiment suite (internal/exp).
//
// Usage:
//
//	experiments [-n 4000] [-seed 1] [-maxm 24] [-maxd 32] [-perdest 200]
//	            [-workers 0] [-quick] [-skip-ixp] [-json grid.json]
//	            [-attack one-hop] [-full] [-shards N]
//	            [-checkpoint sweep.ckpt] [-resume] [-incremental auto|off]
//	experiments -job spec.json -json grid.json
//
// -quick shrinks everything for a fast smoke run. -json additionally
// writes the headline (model × deployment) sweep grid as a JSON
// artifact; the grid is evaluated by the sweep layer, so the file is
// byte-identical at any worker count. -attack swaps the threat model of
// the metric experiments (the partition, root-cause, and phenomena
// experiments are defined for the one-hop attack and ignore it).
//
// -job runs one sweep-grid job described by a versioned sbgp.JobSpec
// JSON file — the same spec format the sbgpd daemon accepts — and
// writes the result grid to -json, skipping the paper report. The
// scattered grid flags (-n/-seed/-maxm/-maxd/-attack/-full/-shards/
// -checkpoint/-resume/-incremental/-workers) are the deprecated
// spelling of the same job: they fill in a JobSpec and take the same
// path, so both spellings produce byte-identical grid files. New
// automation should write a spec file.
//
// -full replaces the MaxM/MaxD pair sampling with the paper's full
// enumeration: every non-stub attacker × every destination (Appendix
// H's BlueGene methodology). -shards, -checkpoint, and -resume run the
// -json grid through the sharded evaluator — fixed-size shards, one
// fsync'd checkpoint record per completed shard — so a full enumeration
// survives interruption: rerun with -resume and the completed shards
// are skipped, with byte-identical output.
//
// Delta evaluation is on by default (-incremental=auto): the planner
// covers the deployment axis with signed-delta walks — nested
// deployments (the rollout sequences) reuse the previous step's fixed
// point via Engine.RunDelta, and incomparable deployments (the
// early-adopter scenarios) are linked by remove-then-add deltas through
// a minimum-cost forest instead of each re-running from scratch. Only
// axes with no linkable pair fall back to the from-scratch schedule.
// Output is byte-identical in both modes; -incremental=off forces the
// from-scratch order. -v prints the planner's prediction beside the
// engines' measured work, and the dispatch counters, of grid evaluations
// to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"sbgp"
	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/exp"
	"sbgp/internal/maxk"
	"sbgp/internal/runner"
)

// options is the parsed command line. The grid flags bind straight into
// the JobSpec fields they spell, so there is no flag-to-spec conversion
// to keep in step with the wire format.
type options struct {
	spec    sbgp.JobSpec
	perDest int

	quick, skipIXP, verbose bool
	jsonPath, jobPath       string
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.IntVar(&o.spec.Topology.N, "n", 4000, "topology size (ASes)")
	fs.Int64Var(&o.spec.Topology.Seed, "seed", 1, "generator seed")
	fs.IntVar(&o.spec.Pairs.MaxM, "maxm", sbgp.DefaultMaxM, "attacker sample size")
	fs.IntVar(&o.spec.Pairs.MaxD, "maxd", sbgp.DefaultMaxD, "destination sample size")
	fs.IntVar(&o.perDest, "perdest", 200, "per-destination series sample")
	fs.IntVar(&o.spec.Workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.BoolVar(&o.quick, "quick", false, "tiny smoke-run configuration")
	fs.BoolVar(&o.skipIXP, "skip-ixp", false, "skip the Appendix J IXP-augmented rerun")
	fs.StringVar(&o.jsonPath, "json", "", "also write the headline sweep grid to this file")
	fs.StringVar(&o.spec.Attack, "attack", "one-hop",
		"threat model for the metric experiments: one-hop|none|origin-spoof|pad-K")
	fs.BoolVar(&o.spec.Pairs.Full, "full", false,
		"enumerate every (non-stub attacker, destination) pair instead of sampling")
	fs.IntVar(&o.spec.ShardSize, "shards", 0,
		"cells per shard for the -json grid (0 = default; enables sharded evaluation)")
	fs.StringVar(&o.spec.Checkpoint, "checkpoint", "",
		"JSON-lines checkpoint file for the -json grid (one fsync'd record per shard)")
	fs.BoolVar(&o.spec.Resume, "resume", false,
		"skip shards already recorded in -checkpoint")
	fs.StringVar(&o.spec.Incremental, "incremental", "auto",
		"delta scheduling mode, auto|off (auto reuses each deployment's fixed point across nested deployments; identical results)")
	fs.StringVar(&o.jobPath, "job", "",
		"run the sweep-grid job described by this JobSpec JSON file and write the grid to -json (replaces the deprecated grid flags)")
	fs.BoolVar(&o.verbose, "v", false,
		"print the planner prediction beside the measured engine work, and the dispatch counters, of grid evaluations to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.quick {
		o.spec.Topology.N, o.spec.Pairs.MaxM, o.spec.Pairs.MaxD, o.perDest = 800, 10, 12, 40
	}
	return o, nil
}

// headlineSpec is the job the grid flags spell: the headline (model ×
// deployment) grid — baseline plus the named rollout endpoints — over
// the flag-bound spec, with the sampling caps (flag defaults that do
// not apply) dropped under -full.
func (o *options) headlineSpec() *sbgp.JobSpec {
	spec := o.spec
	spec.Deployments = []sbgp.JobDeployment{{Named: "t1t2"}, {Named: "t2"}, {Named: "nonstubs"}}
	if spec.Pairs.Full {
		spec.Pairs.MaxM, spec.Pairs.MaxD = 0, 0
	}
	return &spec
}

func main() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail(err)
	}
	// An interrupt cancels whatever is evaluating — the grid or an
	// experiment — and the command exits non-zero with the context error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.jobPath != "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "job", "json", "workers", "v":
			default:
				fail(fmt.Errorf("-%s is part of the deprecated flag spelling and conflicts with -job (put it in the spec file)", f.Name))
			}
		})
		if o.jsonPath == "" {
			fail(fmt.Errorf("-job writes the result grid and needs -json"))
		}
		spec, err := sbgp.LoadJobSpec(o.jobPath)
		if err != nil {
			fail(err)
		}
		if o.spec.Workers != 0 {
			spec.Workers = o.spec.Workers
		}
		sim, err := simulate(ctx, spec)
		if err != nil {
			fail(err)
		}
		if err := writeGrid(sim, o.jsonPath, o.verbose); err != nil {
			fail(err)
		}
		return
	}

	sharded := o.spec.ShardSize > 0 || o.spec.Checkpoint != "" || o.spec.Resume
	if sharded && o.jsonPath == "" {
		fail(fmt.Errorf("-shards/-checkpoint/-resume evaluate the headline grid and need -json"))
	}
	if o.spec.Resume && o.spec.Checkpoint == "" {
		fail(fmt.Errorf("-resume needs -checkpoint"))
	}

	// One simulation of the headline spec serves the workload line, the
	// -json grid and the report.
	spec := o.headlineSpec()
	sim, err := simulate(ctx, spec)
	if err != nil {
		fail(err)
	}
	w, err := exp.NewWorkload(sim, o.perDest)
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload: %d ASes, %d c2p links, %d p2p links, |M|=%d |D|=%d, attack=%s\n",
		w.G.N(), w.G.NumCustomerProviderLinks(), w.G.NumPeerLinks(), len(w.M), len(w.D),
		w.Attack.Name())

	if o.jsonPath != "" {
		// Evaluated exactly as -job (and the sbgpd daemon) would, so both
		// spellings write byte-identical grid files.
		if err := writeGrid(sim, o.jsonPath, o.verbose); err != nil {
			fail(err)
		}
	}
	if err := writeReport(ctx, os.Stdout, o, spec, w); err != nil {
		fail(err)
	}
}

// writeReport prints the paper report of w, simulated from spec, and —
// unless -skip-ixp — Appendix J's rerun of spec on the IXP-augmented graph.
func writeReport(ctx context.Context, out io.Writer, o *options, spec *sbgp.JobSpec, w *exp.Workload) error {
	report(out, w, sbgp.StandardLP)
	if o.skipIXP || w.Err() != nil {
		return w.Err()
	}
	ixp := *spec
	ixp.Topology.IXP = true
	simIXP, err := simulate(ctx, &ixp)
	if err != nil {
		return err
	}
	wi, err := exp.NewWorkload(simIXP, o.perDest)
	if err != nil {
		return err
	}
	reportIXP(out, w, wi, sbgp.StandardLP)
	return wi.Err()
}

// simulate materializes the scenario a job spec describes; everything
// run on the simulation stops when ctx is cancelled.
func simulate(ctx context.Context, spec *sbgp.JobSpec) (*sbgp.Simulation, error) {
	sc, err := sbgp.FromJobSpec(spec, sbgp.WithContext(ctx))
	if err != nil {
		return nil, err
	}
	return sc.Simulate()
}

// writeGrid evaluates a simulated job through the one shared path (the
// same EvaluateJob the daemon uses) and writes the result grid to path.
// With verbose set, the evaluation's ShardStats line — the planner's
// prediction beside the engines' measured work — goes to stderr; the grid
// file stays byte-identical either way.
func writeGrid(sim *sbgp.Simulation, path string, verbose bool) error {
	var stats sbgp.ShardStats
	res, err := sim.EvaluateJob(sbgp.JobEvalOptions{Stats: &stats})
	if err != nil {
		return err
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", stats)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d-cell sweep grid to %s\n", len(res.Cells), path)
	return nil
}

func report(out io.Writer, w *exp.Workload, lp sbgp.LocalPref) {
	p := func(format string, args ...interface{}) { fmt.Fprintf(out, format, args...) }

	p("\n== E27 / Table 1: tier taxonomy ==\n")
	sizes := w.TierSizes()
	for t := 0; t < asgraph.NumTiers; t++ {
		p("  %-7s %5d\n", asgraph.Tier(t), sizes[t])
	}

	p("\n== E1 / Section 4.2: baseline H_V,V(∅), origin authentication only ==\n")
	base := w.Baseline(sbgp.Sec3rd, lp)
	p("  paper: ≥60%% (62%% IXP-augmented)   measured: lower=%.1f%% upper=%.1f%%\n",
		100*base.Lo, 100*base.Hi)

	p("\n== E2 / Figure 3: doomed / protectable / immune, all pairs ==\n")
	p("  paper upper bounds on H(S) ∀S: ~100%% (1st), 89%% (2nd), 75%% (3rd)\n")
	pf, bySrc := w.Partitions(lp)
	for _, m := range sbgp.Models {
		p("  %-13s immune=%5.1f%%  protectable=%5.1f%%  doomed=%5.1f%%  ⇒ upper bound %5.1f%%\n",
			m, 100*pf.LowerBound(m), 100*pf.Frac[m][core.CatProtectable],
			100*pf.Frac[m][core.CatDoomed], 100*pf.UpperBound(m))
	}

	p("\n== E3/E4 / Figures 4–5: partitions by destination tier ==\n")
	p("  paper: Tier 1 destinations ~80%% doomed under sec 2nd/3rd; 8–15%% headroom elsewhere\n")
	byDest := w.PartitionsByDestTier(lp)
	printTierTable(p, byDest, "dest")

	p("\n== E5 / Figure 6: partitions by attacker tier (sec 3rd) ==\n")
	p("  paper: attacker strength grows stub→Tier 2, then collapses for Tier 1 attackers\n")
	byAtt := w.PartitionsByAttackerTier(lp)
	for t := 0; t < asgraph.NumTiers; t++ {
		if byAtt[t].Pairs == 0 {
			continue
		}
		f := byAtt[t].Frac[sbgp.Sec3rd]
		p("  attacker %-7s immune=%5.1f%%  doomed=%5.1f%%  (pairs %d)\n",
			asgraph.Tier(t), 100*f[core.CatImmune], 100*f[core.CatDoomed], byAtt[t].Pairs)
	}

	p("\n== E6 / Section 4.7: partitions by source tier (sec 3rd) ==\n")
	p("  paper: every source tier looks alike (~60%% immune, 25%% doomed, 15%% protectable)\n")
	for t := 0; t < asgraph.NumTiers; t++ {
		f := bySrc[t].Frac[sbgp.Sec3rd]
		if f[0]+f[1]+f[2] == 0 {
			continue
		}
		p("  source %-7s immune=%5.1f%%  doomed=%5.1f%%  protectable=%5.1f%%\n",
			asgraph.Tier(t), 100*f[core.CatImmune], 100*f[core.CatDoomed],
			100*f[core.CatProtectable])
	}

	p("\n== E7 / Figure 7(a): Tier 1+2 rollout, ΔH_M',V(S) with simplex error bars ==\n")
	p("  paper: last step ≈ +24%% (1st), small (2nd≈3rd); simplex stubs barely move the needle\n")
	printRollout(p, w.Rollout(w.Tier12, w.D, lp))

	p("\n== E8 / Figure 7(b): same rollout, secure destinations only ==\n")
	p("  paper: sec 2nd reaches +13–20%% for secure destinations by the last step\n")
	last := w.Tier12[len(w.Tier12)-1]
	deltas := w.SecureDestDeltas(last.Deployment, lp)
	for _, m := range sbgp.Models {
		p("  %-13s mean ΔH over d∈S = %+.1f%%\n", m, 100*exp.MeanDelta(deltas[m]))
	}

	p("\n== E9 / Figure 8: Tier 1+2+CP rollout, CP destinations ==\n")
	p("  paper: ≥26%% (1st), 9.4%% (2nd), 4%% (3rd) at the last step\n")
	cpSteps := deploy.Tier12CPRollout(w.G, w.Tiers, w.Meta.CPs, false)
	printRollout(p, w.Rollout(cpSteps, w.Meta.CPs, lp))

	p("\n== E10 / Figure 9: per-destination ΔH sequence, T1+T2+stubs ==\n")
	printDeltaSeq(p, deltas)

	p("\n== E11/E12 / Figures 10–11: Tier 2-only rollout ==\n")
	p("  paper: slower growth; the sec 1st vs 2nd gap narrows without Tier 1s\n")
	t2Steps := deploy.Tier2Rollout(w.G, w.Tiers, false)
	printRollout(p, w.Rollout(t2Steps, w.D, lp))
	t2Last := t2Steps[len(t2Steps)-1]
	printDeltaSeq(p, w.SecureDestDeltas(t2Last.Deployment, lp))

	p("\n== E13 / Figure 12: all non-stubs secure, per-destination ΔH ==\n")
	p("  paper: worst-case ΔH 6.2%% / 4.7%% / 2.2%%; sec 2nd nearly reaches sec 1st\n")
	nsDep := deploy.Build(w.G, w.Tiers, deploy.Spec{AllNonStubs: true})
	printDeltaSeq(p, w.SecureDestDeltas(nsDep, lp))

	p("\n== E14 / Section 5.3.1: choice of early adopters ==\n")
	p("  paper: T1s+stubs <0.2%% (sec 2nd/3rd); 13 T2s+stubs ≈1%% — pick Tier 2s\n")
	for _, r := range w.EarlyAdopters(lp) {
		p("  %-22s (|S|=%4d): 1st %+6.2f%%  2nd %+6.2f%%  3rd %+6.2f%%\n",
			r.Name, r.Secured, 100*r.MeanDelta[0], 100*r.MeanDelta[1], 100*r.MeanDelta[2])
	}

	p("\n== E15 / Figure 13: fate of secure routes to CP destinations (sec 3rd) ==\n")
	p("  paper: most secure routes are lost to downgrades; the rest sit on immune sources\n")
	cps, accs := w.CPFate(sbgp.Sec3rd, lp)
	for i, a := range accs {
		p("  CP AS%-5d secure-normal=%5.1f%%  downgraded=%5.1f%%  retained=%5.1f%%\n",
			cps[i], 100*a.SecureNormal, 100*a.Downgraded, 100*(a.WastedOnHappy+a.Protected))
	}

	p("\n== E16 / Figure 16: root-cause decomposition, last T1+T2 step ==\n")
	rc := w.RootCause(lp)
	for _, m := range []sbgp.Model{sbgp.Sec3rd, sbgp.Sec1st} {
		a := rc[m]
		p("  %-13s secure-normal=%.1f%%: downgraded=%.1f%% wasted-on-happy=%.1f%% protected=%.1f%%\n",
			m, 100*a.SecureNormal, 100*a.Downgraded, 100*a.WastedOnHappy, 100*a.Protected)
		p("  %13s collateral: benefit=%+.2f%% damage=%-+.2f%%  ⇒ metric change %+.1f%%\n",
			"", 100*a.CollateralBenefit, -100*a.CollateralDamage, 100*a.MetricChange)
	}

	p("\n== E17 / Table 3: phenomena matrix ==\n")
	p("  paper: downgrades 2nd,3rd; collateral benefits all; collateral damages 1st,2nd\n")
	p("  %-22s", "observed:")
	for _, m := range sbgp.Models {
		p("  [%v: dg=%v cb=%v cd=%v]", m, rc[m].Downgraded > 0, rc[m].CollateralBenefit > 0, rc[m].CollateralDamage > 0)
	}
	p("\n")

	p("\n== E24 / Theorem 5.1: Max-k-Security on the Appendix I gadget ==\n")
	gd := maxk.BuildGadget(3, [][]int{{0, 1}, {1, 2}, {0, 2}}, 2)
	p("  set cover {0,1},{1,2},{0,2} with γ=2: satisfiable=%v (want true)\n", gd.Satisfiable(sbgp.Sec3rd))
	gd1 := maxk.BuildGadget(3, [][]int{{0, 1}, {1, 2}, {0, 2}}, 1)
	p("  same family with γ=1:               satisfiable=%v (want false)\n", gd1.Satisfiable(sbgp.Sec3rd))

	p("\n== E26 / Figures 24–25 (Appendix K): LP2 policy variant ==\n")
	p("  paper: sec3rd headroom shrinks to ~11–13%%; high tiers mostly immune\n")
	lpf, _ := w.Partitions(sbgp.LP2)
	base2 := w.Baseline(sbgp.Sec3rd, sbgp.LP2)
	p("  LP2 baseline lower=%.1f%%\n", 100*base2.Lo)
	for _, m := range sbgp.Models {
		p("  LP2 %-13s immune=%5.1f%%  doomed=%5.1f%%  ⇒ upper bound %5.1f%%\n",
			m, 100*lpf.LowerBound(m), 100*lpf.Frac[m][core.CatDoomed], 100*lpf.UpperBound(m))
	}
	p("  Figure 25 (LP2 partitions by destination tier):\n")
	p("  paper: high-degree tiers gain immunity; Tier 1 destinations mostly immune under LP2\n")
	printTierTable(p, w.PartitionsByDestTier(sbgp.LP2), "dest")
}

// reportIXP prints E25: the baseline and partitions of w's scenario on
// the IXP-augmented graph, wi.
func reportIXP(out io.Writer, w, wi *exp.Workload, lp sbgp.LocalPref) {
	p := func(format string, args ...interface{}) { fmt.Fprintf(out, format, args...) }

	p("\n== E25 / Appendix J: IXP-augmented graph ==\n")
	p("  augmented: %d p2p links (was %d)\n", wi.G.NumPeerLinks(), w.G.NumPeerLinks())
	basei := wi.Baseline(sbgp.Sec3rd, lp)
	p("  baseline lower=%.1f%% (paper: 62%%)\n", 100*basei.Lo)
	pfi, _ := wi.Partitions(lp)
	for _, m := range sbgp.Models {
		p("  %-13s immune=%5.1f%%  doomed=%5.1f%%  ⇒ upper bound %5.1f%%\n",
			m, 100*pfi.LowerBound(m), 100*pfi.Frac[m][core.CatDoomed], 100*pfi.UpperBound(m))
	}
}

func printTierTable(p func(string, ...interface{}), buckets []runner.PartitionFractions, kind string) {
	for _, model := range []sbgp.Model{sbgp.Sec3rd, sbgp.Sec2nd} {
		p("  [%v]\n", model)
		for t := 0; t < asgraph.NumTiers; t++ {
			if buckets[t].Pairs == 0 {
				continue
			}
			f := buckets[t].Frac[model]
			p("    %s %-7s immune=%5.1f%%  protectable=%5.1f%%  doomed=%5.1f%%\n",
				kind, asgraph.Tier(t), 100*f[core.CatImmune], 100*f[core.CatProtectable],
				100*f[core.CatDoomed])
		}
	}
}

func printRollout(p func(string, ...interface{}), pts []exp.RolloutPoint) {
	for _, pt := range pts {
		p("  %-22s (%3d non-stubs, %5d ASes):", pt.Name, pt.NonStubs, pt.SecuredASes)
		for _, m := range sbgp.Models {
			p("  %d:%+5.1f..%+5.1f%%(x%+5.1f%%)", int(m)+1,
				100*pt.Delta[m].Lo, 100*pt.Delta[m].Hi, 100*pt.SimplexDelta[m].Lo)
		}
		p("\n")
	}
}

func printDeltaSeq(p func(string, ...interface{}), deltas [sbgp.NumModels][]float64) {
	for _, m := range sbgp.Models {
		seq := deltas[m]
		if len(seq) == 0 {
			continue
		}
		q := func(f float64) float64 { return 100 * seq[int(f*float64(len(seq)-1))] }
		p("  %-13s min=%+5.1f%% p25=%+5.1f%% median=%+5.1f%% p75=%+5.1f%% max=%+5.1f%% mean=%+5.1f%%\n",
			m, q(0), q(0.25), q(0.5), q(0.75), q(1), 100*exp.MeanDelta(seq))
	}
}
