// Downgrade reproduces Figure 2 of the paper: the protocol downgrade
// attack against webhost AS 21740. Under normal conditions the webhost
// uses a secure one-hop provider route to the Tier 1 destination
// Level 3 (AS 3356); when the attacker announces the bogus path "m, d"
// via legacy BGP, the webhost prefers the resulting four-hop *peer*
// route (local preference outranks security in the security 2nd and 3rd
// models) and silently abandons its secure route. Runs the routing
// engine (internal/core) directly on a hand-built topology.
//
//	go run ./examples/downgrade
package main

import (
	"fmt"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
)

const (
	level3  = asgraph.AS(0) // AS 3356, Tier 1, the destination
	webhost = asgraph.AS(1) // AS 21740
	cogent  = asgraph.AS(2) // AS 174
	pccw    = asgraph.AS(3) // AS 3491
	dodStub = asgraph.AS(4) // AS 3536, single-homed stub
	attackr = asgraph.AS(5)
)

var names = map[asgraph.AS]string{
	level3: "AS3356(Level3)", webhost: "AS21740(webhost)", cogent: "AS174(Cogent)",
	pccw: "AS3491(PCCW)", dodStub: "AS3536(DoD)", attackr: "m(attacker)",
}

func main() {
	b := asgraph.NewBuilder(6)
	b.AddProviderCustomer(level3, webhost)
	b.AddProviderCustomer(level3, dodStub)
	b.AddPeer(cogent, level3)
	b.AddPeer(cogent, webhost)
	b.AddProviderCustomer(cogent, pccw)
	b.AddProviderCustomer(pccw, attackr)
	g := b.MustBuild()

	// Per Section 5.3.1: the Tier 1 and its stubs have deployed S*BGP.
	dep := &core.Deployment{Full: asgraph.SetOf(6, level3, webhost, dodStub)}

	for _, model := range policy.Models {
		e := core.NewEngine(g, model, core.WithResolvedTiebreak())
		fmt.Printf("— %s —\n", model)

		normal := e.RunNormal(level3, dep).Clone()
		fmt.Printf("  normal:  %s\n", describe(normal, webhost))

		attack := e.Run(level3, attackr, dep)
		fmt.Printf("  attack:  %s\n", describe(attack, webhost))

		switch {
		case core.Downgraded(normal, attack, webhost):
			fmt.Println("  ⇒ protocol downgrade: the secure route was abandoned for a bogus one")
		case attack.Secure[webhost]:
			fmt.Println("  ⇒ the webhost kept its secure route (Theorem 3.1)")
		}
		fmt.Println()
	}
}

func describe(o *core.Outcome, v asgraph.AS) string {
	path := o.Path(v)
	s := ""
	for i, hop := range path {
		if i > 0 {
			s += " → "
		}
		s += names[hop]
	}
	sec := "insecure"
	if o.Secure[v] {
		sec = "SECURE"
	}
	return fmt.Sprintf("%s (%s %s route, %s)", s, o.Class[v], o.Label[v], sec)
}
