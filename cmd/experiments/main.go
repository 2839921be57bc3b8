// Command experiments regenerates every table and figure of the paper's
// evaluation (the experiment index E1–E27 of DESIGN.md) on a synthetic
// workload and prints the measured values under the paper's claims about
// them (exp.Claims), each with its measured value and whether it holds,
// by what margin; a miss does not change the exit status. It simulates
// one sbgp.Scenario — the headline job the report flags spell — and
// hands that Simulation to both the grid writer and the experiment suite
// (internal/exp).
//
// Usage:
//
//	experiments [-n 4000] [-seed 1] [-maxm 24] [-maxd 32] [-perdest 200]
//	            [-workers 0] [-quick] [-skip-ixp] [-json grid.json]
//	            [-attack one-hop] [-full] [-v]
//
// -quick shrinks everything for a fast smoke run and so conflicts with
// the size flags (-n, -maxm, -maxd, -perdest). -json additionally
// writes the headline (model × deployment) sweep grid as a JSON
// artifact; the grid is evaluated by the sweep layer, so the file is
// byte-identical at any worker count. -attack swaps the threat model of
// the metric experiments (the partition, root-cause, and phenomena
// experiments are defined for the one-hop attack and ignore it).
//
// -full replaces the MaxM/MaxD pair sampling with the paper's full
// enumeration: every non-stub attacker × every destination (Appendix
// H's BlueGene methodology). A grid job that must survive interruption
// — sharded, checkpointed and resumed — is a sbgp.JobSpec file run by
// bgpsim -job or the sbgpd daemon. -v prints the planner's prediction
// beside the engines' measured work, and the dispatch counters, of grid
// evaluations to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sbgp"
	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/exp"
	"sbgp/internal/runner"
)

// options is the parsed command line. The report flags bind straight
// into the fields of the headline JobSpec they spell.
type options struct {
	spec    sbgp.JobSpec
	perDest int

	quick, skipIXP, verbose bool
	jsonPath                string
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.IntVar(&o.spec.Topology.N, "n", 4000, "topology size (ASes)")
	fs.Int64Var(&o.spec.Topology.Seed, "seed", 1, "generator seed")
	fs.IntVar(&o.spec.Pairs.MaxM, "maxm", sbgp.DefaultMaxM, "attacker sample size")
	fs.IntVar(&o.spec.Pairs.MaxD, "maxd", sbgp.DefaultMaxD, "destination sample size")
	fs.IntVar(&o.perDest, "perdest", 200, "per-destination series sample")
	fs.IntVar(&o.spec.Workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.BoolVar(&o.quick, "quick", false, "tiny smoke-run configuration (sets -n, -maxm, -maxd and -perdest)")
	fs.BoolVar(&o.skipIXP, "skip-ixp", false, "skip the Appendix J IXP-augmented rerun")
	fs.StringVar(&o.jsonPath, "json", "", "also write the headline sweep grid to this file")
	fs.StringVar(&o.spec.Attack, "attack", "one-hop",
		"threat model for the metric experiments: one-hop|none|origin-spoof|pad-K")
	fs.BoolVar(&o.spec.Pairs.Full, "full", false,
		"enumerate every (non-stub attacker, destination) pair instead of sampling")
	fs.BoolVar(&o.verbose, "v", false,
		"print the planner prediction beside the measured engine work, and the dispatch counters, of grid evaluations to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.perDest < 0 {
		return nil, fmt.Errorf("-perdest %d is negative", o.perDest)
	}
	if o.quick {
		var err error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n", "maxm", "maxd", "perdest":
				err = fmt.Errorf("-%s conflicts with -quick, which sets the sizes itself", f.Name)
			}
		})
		if err != nil {
			return nil, err
		}
		o.spec.Topology.N, o.spec.Pairs.MaxM, o.spec.Pairs.MaxD, o.perDest = 800, 10, 12, 40
	}
	return o, nil
}

// headlineSpec is the job the report flags spell: the headline (model ×
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
		// Evaluated exactly as bgpsim -job (and the sbgpd daemon) would,
		// so the grid file is the one a spec file of this job yields.
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
	r := exp.NewReport(w)
	report(out, r)
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
	ri := exp.NewReport(wi)
	ri.Plain = r
	reportIXP(out, ri)
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

// report prints the paper report r, each section headed by its claims.
func report(out io.Writer, r *exp.Report) {
	p := func(format string, args ...interface{}) { fmt.Fprintf(out, format, args...) }
	w, section := r.W, sectionPrinter(p, r)

	section("E27 / Table 1: tier taxonomy")
	for t := 0; t < asgraph.NumTiers; t++ {
		p("  %-7s %5d\n", asgraph.Tier(t), len(w.Tiers.Members[t]))
	}

	section("E1 / Section 4.2: baseline H_V,V(∅), origin authentication only")
	p("  measured: lower=%.1f%% upper=%.1f%%\n", 100*r.Base().Lo, 100*r.Base().Hi)

	section("E2 / Figure 3: doomed / protectable / immune, all pairs")
	pf := r.Part()
	for _, m := range sbgp.Models {
		p("  %-13s immune=%5.1f%%  protectable=%5.1f%%  doomed=%5.1f%%  ⇒ upper bound %5.1f%%\n",
			m, 100*pf.LowerBound(m), 100*pf.Frac[m][core.CatProtectable],
			100*pf.Frac[m][core.CatDoomed], 100*pf.UpperBound(m))
	}

	section("E3/E4 / Figures 4–5: partitions by destination tier")
	printTierTable(p, r.ByDest(), "dest")

	section("E5 / Figure 6: partitions by attacker tier (sec 3rd)")
	byAtt := r.ByAttacker()
	for t := 0; t < asgraph.NumTiers; t++ {
		if byAtt[t].Pairs == 0 {
			continue
		}
		f := byAtt[t].Frac[sbgp.Sec3rd]
		p("  attacker %-7s immune=%5.1f%%  doomed=%5.1f%%  (pairs %d)\n",
			asgraph.Tier(t), 100*f[core.CatImmune], 100*f[core.CatDoomed], byAtt[t].Pairs)
	}

	section("E6 / Section 4.7: partitions by source tier (sec 3rd)")
	bySrc := r.BySource()
	for t := 0; t < asgraph.NumTiers; t++ {
		f := bySrc[t].Frac[sbgp.Sec3rd]
		if f[0]+f[1]+f[2] == 0 {
			continue
		}
		p("  source %-7s immune=%5.1f%%  doomed=%5.1f%%  protectable=%5.1f%%\n",
			asgraph.Tier(t), 100*f[core.CatImmune], 100*f[core.CatDoomed],
			100*f[core.CatProtectable])
	}

	section("E7 / Figure 7(a): Tier 1+2 rollout, ΔH_M',V(S) with simplex error bars")
	printRollout(p, r.Tier12(), r.Tier12Simplex())

	section("E8 / Figure 7(b): same rollout, secure destinations only")
	for _, m := range sbgp.Models {
		p("  %-13s mean ΔH over d∈S = %+.1f%%\n", m, 100*exp.MeanDelta(r.Tier12Deltas()[m]))
	}

	section("E9 / Figure 8: Tier 1+2+CP rollout, CP destinations")
	printRollout(p, r.CPRollout(), r.CPRolloutSimplex())

	section("E10 / Figure 9: per-destination ΔH sequence, T1+T2+stubs")
	printDeltaSeq(p, r.Tier12Deltas())

	section("E11/E12 / Figures 10–11: Tier 2-only rollout")
	printRollout(p, r.Tier2(), r.Tier2Simplex())
	printDeltaSeq(p, r.Tier2Deltas())

	section("E13 / Figure 12: all non-stubs secure, per-destination ΔH")
	printDeltaSeq(p, r.NonStubDeltas())

	section("E14 / Section 5.3.1: choice of early adopters")
	for _, early := range r.Early {
		e := early()
		p("  %-22s (|S|=%4d): 1st %+6.2f%%  2nd %+6.2f%%  3rd %+6.2f%%\n",
			e.Name, e.Secured, 100*e.MeanDelta[0], 100*e.MeanDelta[1], 100*e.MeanDelta[2])
	}

	section("E15 / Figure 13: fate of secure routes to CP destinations (sec 3rd)")
	for i, a := range r.CPFate() {
		p("  CP AS%-5d secure-normal=%5.1f%%  downgraded=%5.1f%%  retained=%5.1f%%\n",
			w.Meta.CPs[i], 100*a.SecureNormal, 100*a.Downgraded, 100*(a.WastedOnHappy+a.Protected))
	}

	section("E16 / Figure 16: root-cause decomposition, last T1+T2 step")
	for _, m := range []sbgp.Model{sbgp.Sec3rd, sbgp.Sec1st} {
		a := r.RootCause()[m]
		p("  %-13s secure-normal=%.1f%%: downgraded=%.1f%% wasted-on-happy=%.1f%% protected=%.1f%%\n",
			m, 100*a.SecureNormal, 100*a.Downgraded, 100*a.WastedOnHappy, 100*a.Protected)
		p("  %13s collateral: benefit=%+.2f%% damage=%-+.2f%%  ⇒ metric change %+.1f%%\n",
			"", 100*a.CollateralBenefit, -100*a.CollateralDamage, 100*a.MetricChange)
	}

	section("E17 / Table 3: phenomena matrix")
	p("  %-22s", "observed:")
	for _, m := range sbgp.Models {
		rc := r.RootCause()[m]
		p("  [%v: dg=%v cb=%v cd=%v]", m, rc.Downgraded > 0, rc.CollateralBenefit > 0, rc.CollateralDamage > 0)
	}
	p("\n")

	section("E24 / Theorem 5.1: Max-k-Security on the Appendix I gadget")
	p("  set cover {0,1},{1,2},{0,2} with γ=2: satisfiable=%v\n", exp.Gadget(2))
	p("  same family with γ=1:               satisfiable=%v\n", exp.Gadget(1))

	section("E26 / Figures 24–25 (Appendix K): LP2 policy variant")
	p("  LP2 baseline lower=%.1f%%\n", 100*r.BaseLP2().Lo)
	printBounds(p, "LP2 ", r.PartLP2())
	p("  Figure 25 (LP2 partitions by destination tier):\n")
	printTierTable(p, r.ByDestLP2(), "dest")
}

// reportIXP prints E25: the baseline and partitions of the scenario's
// rerun on the IXP-augmented graph, ri.
func reportIXP(out io.Writer, ri *exp.Report) {
	p := func(format string, args ...interface{}) { fmt.Fprintf(out, format, args...) }
	sectionPrinter(p, ri)("E25 / Appendix J: IXP-augmented graph")
	p("  augmented: %d p2p links (was %d)\n", ri.W.G.NumPeerLinks(), ri.Plain.W.G.NumPeerLinks())
	p("  baseline lower=%.1f%%\n", 100*ri.Base().Lo)
	printBounds(p, "", ri.Part())
}

// sectionPrinter returns a printer of section headings, each followed by
// the rows of exp.Claims for the experiment the title starts with: the
// statement, the value measured on r, and whether it holds, by what
// margin.
func sectionPrinter(p func(string, ...interface{}), r *exp.Report) func(title string) {
	return func(title string) {
		p("\n== %s ==\n", title)
		id := title[:strings.IndexAny(title, " /")] + "."
		for _, c := range exp.Claims {
			if !strings.HasPrefix(c.ID, id) {
				continue
			}
			v := c.Value(r)
			verdict := "holds, margin " + c.Format(c.Bound.Margin(v))
			if !c.Bound.Holds(v) {
				verdict = "MISS by " + c.Format(-c.Bound.Margin(v))
			}
			p("  claim %-11s %-8s %s — %s, %s\n", c.ID, c.Ref, c.Statement, c.Format(v), verdict)
		}
	}
}

// printBounds prints each model's immune and doomed fractions and upper
// bound.
func printBounds(p func(string, ...interface{}), prefix string, pf runner.PartitionFractions) {
	for _, m := range sbgp.Models {
		p("  %s%-13s immune=%5.1f%%  doomed=%5.1f%%  ⇒ upper bound %5.1f%%\n",
			prefix, m, 100*pf.LowerBound(m), 100*pf.Frac[m][core.CatDoomed], 100*pf.UpperBound(m))
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

// printRollout prints each step's ΔH bounds per model, with the simplex
// variant's lower bound in parentheses (Figure 7's error bars).
func printRollout(p func(string, ...interface{}), pts, simplex []exp.RolloutPoint) {
	for i, pt := range pts {
		var sx exp.RolloutPoint // zero if the simplex rollout failed
		if i < len(simplex) {
			sx = simplex[i]
		}
		p("  %-22s (%3d non-stubs, %5d ASes):", pt.Name, pt.NonStubs, pt.SecuredASes)
		for _, m := range sbgp.Models {
			p("  %d:%+5.1f..%+5.1f%%(x%+5.1f%%)", int(m)+1,
				100*pt.Delta[m].Lo, 100*pt.Delta[m].Hi, 100*sx.Delta[m].Lo)
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
