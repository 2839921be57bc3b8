// Wedgie reproduces Figure 1 of the paper: when ASes place route
// security inconsistently in their BGP decision processes, a link flap
// wedges the network into an unintended stable state that persists after
// the link recovers. Runs the message-level simulator (internal/bgpsim)
// directly — the one place per-AS placements may disagree.
//
//	go run ./examples/wedgie
package main

import (
	"fmt"

	"sbgp/internal/asgraph"
	"sbgp/internal/bgpsim"
)

// The Figure 1 cast, densely indexed.
const (
	mit     = asgraph.AS(0) // AS 3, the destination
	as8928  = asgraph.AS(1) // the only AS that never deployed S*BGP
	as34226 = asgraph.AS(2)
	as31283 = asgraph.AS(3) // Norwegian ISP: security 1st
	as29518 = asgraph.AS(4) // Swedish ISP: security below LP
	as31027 = asgraph.AS(5) // Danish ISP
)

var names = map[asgraph.AS]string{
	mit: "AS3(MIT)", as8928: "AS8928", as34226: "AS34226",
	as31283: "AS31283(NO)", as29518: "AS29518(SE)", as31027: "AS31027(DK)",
}

func main() {
	b := asgraph.NewBuilder(6)
	b.AddProviderCustomer(as8928, mit)
	b.AddProviderCustomer(as31027, mit)
	b.AddProviderCustomer(as34226, as8928)
	b.AddProviderCustomer(as31283, as34226)
	b.AddProviderCustomer(as29518, as31283)
	b.AddProviderCustomer(as31027, as29518)
	g := b.MustBuild()

	// Everyone but AS 8928 is secure; the Norwegians rank security 1st,
	// the Swedes below local preference. That inconsistency is the
	// whole story.
	placements := []bgpsim.Placement{
		bgpsim.First, bgpsim.NotDeployed, bgpsim.Third,
		bgpsim.First, bgpsim.Third, bgpsim.First,
	}
	sim := bgpsim.New(g, placements)

	fmt.Println("establishing the intended state (secure path first)...")
	sim.FailLink(as34226, as8928)
	sim.Announce(mit)
	sim.Run(0)
	sim.RestoreLink(as34226, as8928)
	sim.Run(0)
	show(sim, "intended stable state")

	fmt.Println("\nthe AS31027–AS3 link fails...")
	sim.FailLink(as31027, mit)
	sim.Run(0)
	show(sim, "after failure")

	fmt.Println("\n...and recovers. BGP does NOT revert:")
	sim.RestoreLink(as31027, mit)
	sim.Run(0)
	show(sim, "after recovery — wedged")

	fmt.Println("\nAS29518 still prefers its (insecure) customer route through")
	fmt.Println("AS31283, because its LP step outranks route security; AS31283 is")
	fmt.Println("stuck behind it on the path through never-secured AS8928.")
}

func show(sim *bgpsim.Net, label string) {
	fmt.Printf("%s:\n", label)
	for _, v := range []asgraph.AS{as31283, as29518} {
		r := sim.RouteOf(v)
		if r == nil {
			fmt.Printf("  %-12s no route\n", names[v])
			continue
		}
		fmt.Printf("  %-12s ", names[v])
		for i, hop := range r.Path {
			if i > 0 {
				fmt.Print(" → ")
			}
			fmt.Print(names[hop])
		}
		if r.Secure {
			fmt.Print("   [secure]")
		} else {
			fmt.Print("   [insecure]")
		}
		fmt.Println()
	}
}
