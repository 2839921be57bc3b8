// Command bgpsim runs a single attack scenario on a topology (generated
// or loaded from the asgraph text format) and reports the security
// metric, partition fractions, and downgrade counts for one
// attacker-destination pair — a microscope for a single cell of the
// paper's aggregate figures. Both modes run an sbgp.Scenario: the
// single pair through Simulation.Run and Partition, the grid through
// EvaluateJob.
//
// The threat model is pluggable: -attack selects the paper's one-hop
// hijack (default), no attack, an RPKI-stopped origin spoof, or a
// padded-path attack ("pad-K").
//
// With -sweep it instead evaluates the full (model × deployment ×
// attacker × destination) grid — every security model against the
// chosen deployment and the baseline, over sampled pairs — and prints
// the grid as JSON. -full drops the sampling and enumerates every
// (non-stub attacker, destination) pair; -shards/-checkpoint/-resume
// run the grid through the sharded evaluator with a durable per-shard
// checkpoint, so an interrupted enumeration resumes instead of
// restarting (the output stays byte-identical either way).
//
// With -job spec.json it evaluates the sweep-grid job described by a
// versioned sbgp.JobSpec JSON file — the same spec format the sbgpd
// daemon accepts — and prints the grid as JSON. The scattered -sweep
// grid flags are the deprecated spelling of the same job: they fill in
// a JobSpec and take the same path, so both spellings print
// byte-identical grids. New automation should write a spec file.
//
// Examples:
//
//	bgpsim -n 4000 -d 17 -m 212 -model 2 -deploy t1t2
//	bgpsim -n 4000 -d 17 -m 212 -deploy t1t2 -attack pad-3
//	bgpsim -n 4000 -deploy t1t2 -sweep -maxm 24 -maxd 32
//	bgpsim -n 4000 -deploy t1t2 -sweep -full -checkpoint sweep.ckpt -resume
//	bgpsim -job spec.json > grid.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"sbgp"
	"sbgp/internal/core"
)

// options is the parsed command line. The grid flags bind straight into
// the JobSpec fields they spell, so there is no flag-to-spec conversion
// to keep in step with the wire format.
type options struct {
	spec   sbgp.JobSpec
	deploy string

	dst, att, model, showPath int

	sweep, verbose bool
	jobPath        string
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	t := &o.spec.Topology
	fs.StringVar(&t.GraphFile, "graph", "", "topology file (empty: generate)")
	fs.IntVar(&t.N, "n", 4000, "generated topology size")
	fs.Int64Var(&t.Seed, "seed", 1, "generator seed")
	fs.IntVar(&o.dst, "d", 0, "destination AS index")
	fs.IntVar(&o.att, "m", -1, "attacker AS index (-1: normal conditions)")
	fs.IntVar(&o.model, "model", 3, "security model: 1, 2, or 3")
	fs.IntVar(&o.spec.LPK, "lpk", 0, "LPk local-preference variant (0 = standard)")
	fs.StringVar(&o.deploy, "deploy", "none",
		"deployment: "+strings.Join(sbgp.DeploymentNames(), "|"))
	fs.StringVar(&o.spec.Attack, "attack", "one-hop",
		"attack strategy: one-hop|none|origin-spoof|pad-K")
	fs.IntVar(&o.showPath, "path", -1, "print the route of this AS")
	fs.BoolVar(&o.sweep, "sweep", false, "evaluate the full model/deployment grid and print JSON")
	fs.IntVar(&o.spec.Pairs.MaxM, "maxm", sbgp.DefaultMaxM, "attacker sample size (with -sweep)")
	fs.IntVar(&o.spec.Pairs.MaxD, "maxd", sbgp.DefaultMaxD, "destination sample size (with -sweep)")
	fs.IntVar(&o.spec.Workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS; with -sweep)")
	fs.BoolVar(&o.spec.Pairs.Full, "full", false,
		"with -sweep: enumerate every (non-stub attacker, destination) pair instead of sampling")
	fs.IntVar(&o.spec.ShardSize, "shards", 0,
		"with -sweep: cells per shard (0 = default; enables sharded evaluation)")
	fs.StringVar(&o.spec.Checkpoint, "checkpoint", "",
		"with -sweep: JSON-lines checkpoint file (one fsync'd record per completed shard)")
	fs.BoolVar(&o.spec.Resume, "resume", false,
		"with -sweep: skip shards already recorded in -checkpoint")
	fs.StringVar(&o.spec.Incremental, "incremental", "auto",
		"with -sweep: delta scheduling mode, auto|off (auto reuses fixed points across nested deployments; identical results)")
	fs.StringVar(&o.jobPath, "job", "",
		"evaluate the sweep-grid job described by this JobSpec JSON file and print the grid (replaces the deprecated -sweep grid flags)")
	fs.BoolVar(&o.verbose, "v", false,
		"with -sweep or -job: print the planner prediction beside the measured engine work, and the dispatch counters, to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, err := sbgp.ParseIncrementalMode(o.spec.Incremental); err != nil {
		return nil, err
	}
	return o, nil
}

// sweepSpec is the job the -sweep grid flags spell: the flag-bound spec
// with the -deploy scenario on its axis ("none" adds nothing) and the
// flag defaults that do not apply dropped — (n, seed) under -graph, the
// sampling caps under -full.
func (o *options) sweepSpec() *sbgp.JobSpec {
	spec := o.spec
	if spec.Topology.GraphFile != "" {
		spec.Topology.N, spec.Topology.Seed = 0, 0
	}
	if o.deploy != "none" {
		spec.Deployments = []sbgp.JobDeployment{{Named: o.deploy}}
	}
	if spec.Pairs.Full {
		spec.Pairs.MaxM, spec.Pairs.MaxD = 0, 0
	}
	return &spec
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgpsim: ")
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	if o.jobPath != "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "job", "workers", "v":
			default:
				log.Fatalf("-%s is part of the deprecated flag spelling and conflicts with -job (put it in the spec file)", f.Name)
			}
		})
		spec, err := sbgp.LoadJobSpec(o.jobPath)
		if err != nil {
			log.Fatal(err)
		}
		if o.spec.Workers != 0 {
			spec.Workers = o.spec.Workers
		}
		if err := printGrid(spec, o.verbose); err != nil {
			log.Fatal(err)
		}
		return
	}

	if o.sweep {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "d", "m", "model", "path":
				log.Fatalf("-%s selects a single scenario and conflicts with -sweep", f.Name)
			case "maxm", "maxd":
				if o.spec.Pairs.Full {
					log.Fatalf("-%s samples pairs and conflicts with -full", f.Name)
				}
			}
		})
		if o.spec.Resume && o.spec.Checkpoint == "" {
			log.Fatal("-resume needs -checkpoint")
		}
		// Evaluated exactly as -job (and the sbgpd daemon) would, so both
		// spellings print byte-identical grids.
		if err := printGrid(o.sweepSpec(), o.verbose); err != nil {
			log.Fatal(err)
		}
		return
	}

	var model sbgp.Model
	switch o.model {
	case 1:
		model = sbgp.Sec1st
	case 2:
		model = sbgp.Sec2nd
	case 3:
		model = sbgp.Sec3rd
	default:
		log.Fatalf("unknown model %d", o.model)
	}
	attack, err := sbgp.ParseAttack(o.spec.Attack)
	if err != nil {
		log.Fatal(err)
	}
	lp := sbgp.LocalPref{K: o.spec.LPK}
	opts := []sbgp.Option{
		sbgp.WithModel(model),
		sbgp.WithLocalPref(lp),
		sbgp.WithNamedDeployment(o.deploy),
		sbgp.WithAttack(attack),
		sbgp.WithWorkers(o.spec.Workers),
	}
	if t := o.spec.Topology; t.GraphFile != "" {
		opts = append(opts, sbgp.WithGraphFile(t.GraphFile))
	} else {
		opts = append(opts, sbgp.WithGeneratedTopology(t.N, t.Seed))
	}
	sim, err := sbgp.NewScenario(opts...).Simulate()
	if err != nil {
		log.Fatal(err)
	}
	g := sim.Graph()

	d := sbgp.AS(o.dst)
	m := sbgp.AS(o.att)
	dep := sim.Deployment()
	fmt.Printf("%s, %s, destination AS%d", model, lp, d)
	if m != sbgp.NoAS {
		fmt.Printf(", attacker AS%d (%s)", m, attack.Name())
	}
	fmt.Printf(", %d secure ASes\n", dep.SecureCount())

	if m != sbgp.NoAS {
		normalRun, err := sim.RunNormal(d)
		if err != nil {
			log.Fatal(err)
		}
		normal := normalRun.Clone()
		attackOut, err := sim.Run(d, m)
		if err != nil {
			log.Fatal(err)
		}
		lo, hi := attackOut.HappyBounds()
		src := attackOut.NumSources()
		fmt.Printf("happy sources: %.1f%% .. %.1f%% of %d\n",
			100*float64(lo)/float64(src), 100*float64(hi)/float64(src), src)
		fmt.Printf("secure routes: %d normal, %d under attack, %d downgraded\n",
			core.CountSecure(normal), core.CountSecure(attackOut),
			core.CountDowngraded(normal, attackOut))
		part, err := sim.Partition(d, m)
		if err != nil {
			log.Fatal(err)
		}
		im, dm, pr := part.Counts(model)
		fmt.Printf("partition (one-hop attack): %d immune, %d doomed, %d protectable\n", im, dm, pr)
		if o.showPath >= 0 && o.showPath < g.N() {
			fmt.Printf("route of AS%d: %v (%v, %s)\n", o.showPath,
				attackOut.Path(sbgp.AS(o.showPath)), attackOut.Label[o.showPath],
				attackOut.Class[o.showPath])
		}
		return
	}
	normal, err := sim.RunNormal(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secure routes under normal conditions: %d of %d sources\n",
		core.CountSecure(normal), normal.NumSources())
	if o.showPath >= 0 && o.showPath < g.N() {
		fmt.Printf("route of AS%d: %v (%s)\n", o.showPath,
			normal.Path(sbgp.AS(o.showPath)), normal.Class[o.showPath])
	}
}

// printGrid evaluates a job through the one shared path (the same
// FromJobSpec → Simulate → EvaluateJob pipeline the daemon uses) and
// prints the result grid as JSON. With verbose set, the evaluation's
// ShardStats line — the planner's prediction beside the engines' measured
// work — goes to stderr; stdout stays byte-identical grid JSON either way.
func printGrid(spec *sbgp.JobSpec, verbose bool) error {
	sc, err := sbgp.FromJobSpec(spec)
	if err != nil {
		return err
	}
	sim, err := sc.Simulate()
	if err != nil {
		return err
	}
	var stats sbgp.ShardStats
	res, err := sim.EvaluateJob(sbgp.JobEvalOptions{Stats: &stats})
	if err != nil {
		return err
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "bgpsim: %v\n", stats)
	}
	return res.WriteJSON(os.Stdout)
}
