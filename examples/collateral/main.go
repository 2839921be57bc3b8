// Collateral demonstrates the non-monotonicity phenomena of Section 6:
// deploying S*BGP at some ASes can make *other* (insecure) ASes better
// off — collateral benefit — or worse off — collateral damage. The
// topologies mirror Figures 14 and 17 of the paper, built edge by edge
// and run on the routing engine (internal/core) directly.
//
//	go run ./examples/collateral
package main

import (
	"fmt"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
)

func main() {
	damageSec2()
	fmt.Println()
	benefitSec2()
	fmt.Println()
	damageSec1()
}

// damageSec2 is the Figure 14 / AS 52142 story: a secure provider
// switches to a longer secure route of the same LP class, pushing its
// insecure customer's legitimate route past the bogus one.
func damageSec2() {
	b := asgraph.NewBuilder(10)
	d, q1, p, s := asgraph.AS(0), asgraph.AS(1), asgraph.AS(2), asgraph.AS(3)
	c1, c2, q2, w, w2, m := asgraph.AS(4), asgraph.AS(5), asgraph.AS(6), asgraph.AS(7), asgraph.AS(8), asgraph.AS(9)
	b.AddProviderCustomer(q1, d)
	b.AddProviderCustomer(q1, p)
	b.AddProviderCustomer(c1, d)
	b.AddProviderCustomer(c2, c1)
	b.AddProviderCustomer(q2, c2)
	b.AddProviderCustomer(q2, p)
	b.AddProviderCustomer(p, s)
	b.AddProviderCustomer(w, s)
	b.AddProviderCustomer(w, w2)
	b.AddProviderCustomer(w2, m)
	g := b.MustBuild()

	e := core.NewEngine(g, policy.Sec2nd)
	before := e.Run(d, m, nil).Clone()
	after := e.Run(d, m, &core.Deployment{Full: asgraph.SetOf(10, d, c1, c2, q2, p)})
	fmt.Println("collateral DAMAGE (security 2nd, Figure 14):")
	fmt.Printf("  insecure customer before deployment: %v (route length %d)\n", before.Label[s], before.Len[s])
	fmt.Printf("  its provider goes secure and picks a %d-hop secure route (was %d)\n", after.Len[p], before.Len[p])
	fmt.Printf("  insecure customer after deployment:  %v (route length %d)\n", after.Label[s], after.Len[s])
}

// benefitSec2 shows the flip side: the provider's secure switch pulls
// its single-homed insecure customer off the attacker.
func benefitSec2() {
	b := asgraph.NewBuilder(8)
	d, p, s, ca := asgraph.AS(0), asgraph.AS(1), asgraph.AS(2), asgraph.AS(3)
	cb, cb2, cb3, m := asgraph.AS(4), asgraph.AS(5), asgraph.AS(6), asgraph.AS(7)
	b.AddProviderCustomer(cb3, d)
	b.AddProviderCustomer(cb2, cb3)
	b.AddProviderCustomer(cb, cb2)
	b.AddProviderCustomer(p, cb)
	b.AddProviderCustomer(ca, m)
	b.AddProviderCustomer(p, ca)
	b.AddProviderCustomer(p, s)
	g := b.MustBuild()

	e := core.NewEngine(g, policy.Sec2nd)
	before := e.Run(d, m, nil).Clone()
	after := e.Run(d, m, &core.Deployment{Full: asgraph.SetOf(8, d, cb3, cb2, cb, p)})
	fmt.Println("collateral BENEFIT (security 2nd, Figure 14):")
	fmt.Printf("  single-homed insecure customer before: %v\n", before.Label[s])
	fmt.Printf("  single-homed insecure customer after:  %v\n", after.Label[s])
}

// damageSec1 is the Figure 17 / Orange Business story: the export rule
// Ex turns a neighbor's secure upgrade into lost reachability for its
// peer, even with security ranked 1st.
func damageSec1() {
	b := asgraph.NewBuilder(7)
	d, orange, optus, as7473 := asgraph.AS(0), asgraph.AS(1), asgraph.AS(2), asgraph.AS(3)
	as17477, as2647, m := asgraph.AS(4), asgraph.AS(5), asgraph.AS(6)
	b.AddProviderCustomer(as17477, d)
	b.AddProviderCustomer(optus, as17477)
	b.AddPeer(orange, optus)
	b.AddProviderCustomer(as7473, optus)
	b.AddProviderCustomer(as7473, d)
	b.AddProviderCustomer(as2647, orange)
	b.AddProviderCustomer(as2647, m)
	g := b.MustBuild()

	e := core.NewEngine(g, policy.Sec1st)
	before := e.Run(d, m, nil).Clone()
	after := e.Run(d, m, &core.Deployment{Full: asgraph.SetOf(7, d, as7473, optus)})
	fmt.Println("collateral DAMAGE (security 1st, Figure 17):")
	fmt.Printf("  Orange before: %v via a %s route exported by its peer\n",
		before.Label[orange], before.Class[orange])
	fmt.Printf("  Optus goes secure, switches to a secure %s route — not exportable to a peer\n",
		after.Class[optus])
	fmt.Printf("  Orange after:  %v via its %s route (the bogus one)\n",
		after.Label[orange], after.Class[orange])
}
