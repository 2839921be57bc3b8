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
// With -job spec.json it instead evaluates the sweep-grid job described
// by a versioned sbgp.JobSpec JSON file — the same spec format the
// sbgpd daemon accepts — and prints the grid as JSON. The spec carries
// everything that shapes the grid: full enumeration, shard size, a
// durable checkpoint and resume, the incremental mode. Only -workers
// and -v may accompany -job.
//
// Examples:
//
//	bgpsim -n 4000 -d 17 -m 212 -model 2 -deploy t1t2
//	bgpsim -n 4000 -d 17 -m 212 -deploy t1t2 -attack pad-3
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

// options is the parsed command line.
type options struct {
	graph, deploy, attack, jobPath string

	n, lpk, dst, att, model, showPath, workers int
	seed                                       int64
	verbose                                    bool
}

func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.graph, "graph", "", "topology file (empty: generate)")
	fs.IntVar(&o.n, "n", 4000, "generated topology size")
	fs.Int64Var(&o.seed, "seed", 1, "generator seed")
	fs.IntVar(&o.dst, "d", 0, "destination AS index")
	fs.IntVar(&o.att, "m", -1, "attacker AS index (-1: normal conditions)")
	fs.IntVar(&o.model, "model", 3, "security model: 1, 2, or 3")
	fs.IntVar(&o.lpk, "lpk", 0, "LPk local-preference variant (0 = standard)")
	fs.StringVar(&o.deploy, "deploy", "none",
		"deployment: "+strings.Join(sbgp.DeploymentNames(), "|"))
	fs.StringVar(&o.attack, "attack", "one-hop",
		"attack strategy: one-hop|none|origin-spoof|pad-K")
	fs.IntVar(&o.showPath, "path", -1, "print the route of this AS")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.StringVar(&o.jobPath, "job", "",
		"evaluate the sweep-grid job described by this JobSpec JSON file and print the grid")
	fs.BoolVar(&o.verbose, "v", false,
		"with -job: print the planner prediction beside the measured engine work, and the dispatch counters, to stderr")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.jobPath == "" {
		return o, nil
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "job", "workers", "v":
		default:
			err = fmt.Errorf("-%s configures the single-pair run and conflicts with -job (put it in the spec file)", f.Name)
		}
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgpsim: ")
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	if o.jobPath != "" {
		spec, err := sbgp.LoadJobSpec(o.jobPath)
		if err != nil {
			log.Fatal(err)
		}
		if o.workers != 0 {
			spec.Workers = o.workers
		}
		if err := printGrid(spec, o.verbose); err != nil {
			log.Fatal(err)
		}
		return
	}

	if o.model < 1 || o.model > len(sbgp.Models) {
		log.Fatalf("unknown model %d", o.model)
	}
	model := sbgp.Models[o.model-1]
	attack, err := sbgp.ParseAttack(o.attack)
	if err != nil {
		log.Fatal(err)
	}
	lp := sbgp.LocalPref{K: o.lpk}
	opts := []sbgp.Option{
		sbgp.WithModel(model),
		sbgp.WithLocalPref(lp),
		sbgp.WithNamedDeployment(o.deploy),
		sbgp.WithAttack(attack),
		sbgp.WithWorkers(o.workers),
	}
	if o.graph != "" {
		opts = append(opts, sbgp.WithGraphFile(o.graph))
	} else {
		opts = append(opts, sbgp.WithGeneratedTopology(o.n, o.seed))
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
