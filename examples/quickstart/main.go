// Quickstart: declare an sbgp.Scenario over a generated Internet-like
// topology, launch the paper's "m, d" attack against a destination,
// and measure how many ASes a partial S*BGP deployment protects under
// each security model — then swap in a smarter padded-path attacker
// with one option.
//
//	go run ./examples/quickstart [-n 1500]
package main

import (
	"flag"
	"fmt"
	"log"

	"sbgp"
	"sbgp/internal/asgraph"
)

func main() {
	n := flag.Int("n", 1500, "topology size")
	flag.Parse()

	// 1. A scenario: a synthetic AS-level topology (Tier 1 clique,
	//    transit hierarchy, stubs, content providers) plus a partial
	//    deployment — all Tier 1s, the top 100 Tier 2s, and their stub
	//    customers adopt S*BGP (the last step of the paper's
	//    Section 5.2.1 rollout).
	sim, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(*n, 42),
		sbgp.WithDeployment("t1t2+stubs", sbgp.DeploymentSpec{
			NumTier1: 13, NumTier2: 100, IncludeStubs: true,
		}),
	).Simulate()
	if err != nil {
		log.Fatal(err)
	}
	g, tiers := sim.Graph(), sim.Tiers()
	fmt.Printf("topology: %d ASes (%d Tier 1s, %d stubs)\n",
		g.N(), len(tiers.Members[asgraph.TierT1]),
		len(tiers.Members[asgraph.TierStub])+len(tiers.Members[asgraph.TierStubX]))
	dep := sim.Deployment()
	fmt.Printf("deployment: %d secure ASes (%.0f%% of the graph)\n",
		dep.SecureCount(), 100*float64(dep.SecureCount())/float64(g.N()))

	// 2. Attack: a Tier 2 AS announces the bogus path "m, d" via legacy
	//    BGP against a content-provider destination.
	d := sim.Meta().CPs[0]
	m := tiers.Members[asgraph.TierT2][7]
	fmt.Printf("attack: AS%d (Tier 2) claims to be adjacent to AS%d (content provider)\n\n", m, d)

	for _, model := range sbgp.Models {
		e := sim.Engine(model)
		baseline := e.Run(d, m, nil)
		lo0, _ := baseline.HappyBounds()

		attack := e.Run(d, m, dep)
		lo, hi := attack.HappyBounds()
		src := float64(attack.NumSources())
		fmt.Printf("%-13s happy sources: %.1f%%..%.1f%% (origin authentication alone: %.1f%%)\n",
			model, 100*float64(lo)/src, 100*float64(hi)/src, 100*float64(lo0)/src)
	}

	// 3. Deployment-invariant analysis: which sources could *any*
	//    deployment save?
	part, err := sim.Partition(d, m)
	if err != nil {
		log.Fatal(err)
	}
	for _, model := range sbgp.Models {
		im, dm, pr := part.Counts(model)
		fmt.Printf("%-13s immune=%d doomed=%d protectable=%d\n", model, im, dm, pr)
	}

	// 4. The threat model is pluggable: rerun security 3rd under a
	//    "smarter" attacker that pads the bogus announcement to three
	//    hops (e.g. to look plausible to an anomaly detector).
	out := sim.Engine(sbgp.Sec3rd).RunAttack(d, m, dep, sbgp.PathPadding{Hops: 3})
	lo, hi := out.HappyBounds()
	src := float64(out.NumSources())
	fmt.Printf("\nsecurity 3rd under a pad-3 attacker: happy sources %.1f%%..%.1f%%\n",
		100*float64(lo)/src, 100*float64(hi)/src)
}
