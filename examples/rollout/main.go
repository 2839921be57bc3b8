// Rollout answers the paper's title question on a synthetic Internet:
// it walks the Tier 1 + Tier 2 deployment rollout of Section 5.2 and
// prints, for each security model, how much the security metric improves
// over origin authentication alone — the "juice" each extra slice of
// S*BGP deployment buys. One sbgp.Scenario is simulated and handed to the
// experiment suite (internal/exp), the way cmd/experiments does it.
//
// The rollout is evaluated incrementally: consecutive deployments are
// nested (S₁ ⊂ S₂ ⊂ …), so each step reuses the previous fixed point
// via the engine's delta path — identical numbers, computed faster.
//
//	go run ./examples/rollout [-n 1500]
package main

import (
	"flag"
	"fmt"
	"log"

	"sbgp"
	"sbgp/internal/exp"
)

func main() {
	n := flag.Int("n", 1500, "topology size")
	flag.Parse()

	sim, err := sbgp.NewScenario(
		sbgp.WithGeneratedTopology(*n, 7),
		sbgp.WithPairSampling(12, 16),
	).Simulate()
	if err != nil {
		log.Fatal(err)
	}
	w, err := exp.NewWorkload(sim, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic Internet: %d ASes; attackers: %d non-stubs; destinations: %d sampled\n\n",
		w.G.N(), len(w.M), len(w.D))

	base := w.Baseline(sbgp.Sec3rd, sbgp.StandardLP)
	fmt.Printf("origin authentication alone already protects %.1f%%..%.1f%% of sources\n\n",
		100*base.Lo, 100*base.Hi)

	points := w.Rollout(w.Tier12, w.D, sbgp.StandardLP)
	fmt.Println("improvement over that baseline (lower bounds):")
	for _, pt := range points {
		fmt.Printf("  %-20s (%4d ASes secure):", pt.Name, pt.SecuredASes)
		for _, m := range sbgp.Models {
			fmt.Printf("  %s %+5.1f%%", short(m), 100*pt.Delta[m].Lo)
		}
		fmt.Println()
	}

	last := points[len(points)-1]
	fmt.Println()
	switch {
	case last.Delta[sbgp.Sec3rd].Lo < last.Delta[sbgp.Sec1st].Lo/3:
		fmt.Println("verdict: with the security 3rd policies operators actually favor, the")
		fmt.Println("juice is meagre — most of the benefit requires ranking security 1st.")
	default:
		fmt.Println("verdict: on this topology partial deployment pays off even when")
		fmt.Println("security ranks below business concerns.")
	}
}

func short(m sbgp.Model) string {
	switch m {
	case sbgp.Sec1st:
		return "1st"
	case sbgp.Sec2nd:
		return "2nd"
	default:
		return "3rd"
	}
}
