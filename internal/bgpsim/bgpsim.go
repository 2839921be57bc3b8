// Package bgpsim is an event-driven, message-level BGP / S*BGP simulator.
//
// Unlike internal/core — which computes the unique stable routing state
// combinatorially via the paper's Appendix B algorithms — bgpsim delivers
// individual announcements and withdrawals under an arbitrary activation
// schedule, with per-AS routing tables. That makes it the right substrate
// for the phenomena of Section 2.3 that only exist *because* BGP is a
// distributed protocol:
//
//   - the S*BGP Wedgie of Figure 1 (two stable states reachable under
//     different schedules when ASes place security inconsistently, plus
//     hysteresis after a link flap), via per-AS security placements and
//     link failure/restoration;
//   - Theorem 2.1 (with *consistent* placements, every fair schedule
//     converges to the same unique stable state), checked in tests by
//     agreeing with internal/core under randomized schedules.
//
// The simulator is intended for small and medium topologies; it favors
// clarity over throughput.
package bgpsim

import (
	"fmt"
	"math/rand"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// Placement is a per-AS security placement. Unlike policy.Model (one
// placement for the whole network), bgpsim allows ASes to disagree —
// which is exactly what produces BGP Wedgies (Section 2.3.1).
type Placement uint8

const (
	// NotDeployed: the AS runs legacy BGP only.
	NotDeployed Placement = iota
	// First, Second, Third mirror policy.Sec1st/2nd/3rd for a secure AS.
	First
	Second
	Third
)

// PlacementFor converts a uniform policy.Model to the per-AS Placement.
func PlacementFor(m policy.Model) Placement {
	switch m {
	case policy.Sec1st:
		return First
	case policy.Sec2nd:
		return Second
	default:
		return Third
	}
}

// Route is an AS-path as received from a neighbor. Path[0] is the
// announcing neighbor and Path[len-1] the origin of the announcement;
// for the attacker's bogus announcement the path ends at the legitimate
// destination even though no such adjacency exists.
type Route struct {
	Path   []asgraph.AS
	Secure bool // carried S*BGP validation state (sender-chain signed)
}

// Len is the route's AS-path length.
func (r *Route) Len() int { return len(r.Path) }

// Contains reports whether the path traverses v.
func (r *Route) Contains(v asgraph.AS) bool {
	for _, x := range r.Path {
		if x == v {
			return true
		}
	}
	return false
}

type message struct {
	from, to asgraph.AS
	route    *Route // nil = withdraw
}

// Net is a running simulation over one destination (and optionally one
// attacker). Create with New, start announcements with Announce/Attack,
// and drive with Run or Step.
type Net struct {
	g         *asgraph.Graph
	placement []Placement
	lp        policy.LocalPref

	origin   asgraph.AS
	attacker asgraph.AS

	rib      []map[asgraph.AS]*Route // rib[v][neighbor] = latest usable announcement
	chosen   []*Route
	sentTo   []map[asgraph.AS]bool // sentTo[v][n]: v has an active announcement at n
	queue    []message
	linkDown map[[2]asgraph.AS]bool

	steps int
}

// New creates a simulation under the standard local-preference model.
// placement must have one entry per AS.
func New(g *asgraph.Graph, placement []Placement) *Net {
	return NewLP(g, placement, policy.Standard)
}

// NewLP creates a simulation under an arbitrary local-preference variant
// (e.g. policy.LP2 for the Appendix K experiments).
func NewLP(g *asgraph.Graph, placement []Placement, lp policy.LocalPref) *Net {
	if len(placement) != g.N() {
		panic(fmt.Sprintf("bgpsim: placement has %d entries for %d ASes", len(placement), g.N()))
	}
	n := g.N()
	net := &Net{
		g:         g,
		placement: append([]Placement(nil), placement...),
		lp:        lp,
		origin:    asgraph.None,
		attacker:  asgraph.None,
		rib:       make([]map[asgraph.AS]*Route, n),
		chosen:    make([]*Route, n),
		sentTo:    make([]map[asgraph.AS]bool, n),
		linkDown:  map[[2]asgraph.AS]bool{},
	}
	for i := range net.rib {
		net.rib[i] = map[asgraph.AS]*Route{}
		net.sentTo[i] = map[asgraph.AS]bool{}
	}
	return net
}

// UniformPlacements builds a placement slice where every AS in dep is
// secure with the placement for model m and everyone else runs legacy
// BGP.
func UniformPlacements(g *asgraph.Graph, m policy.Model, dep *asgraph.Set) []Placement {
	pl := make([]Placement, g.N())
	for v := asgraph.AS(0); int(v) < g.N(); v++ {
		if dep.Has(v) {
			pl[v] = PlacementFor(m)
		}
	}
	return pl
}

// Announce starts the legitimate origin announcement from d.
func (s *Net) Announce(d asgraph.AS) {
	s.origin = d
	s.chosen[d] = &Route{Path: []asgraph.AS{d}, Secure: s.placement[d] != NotDeployed}
	s.export(d)
}

// Attack starts the Section 3.1 attack: m announces the bogus path
// "m, d" via legacy BGP to all of its neighbors.
func (s *Net) Attack(m, d asgraph.AS) {
	s.attacker = m
	s.chosen[m] = &Route{Path: []asgraph.AS{m, d}, Secure: false}
	s.export(m)
}

// FailLink takes the link between a and b down: in-flight messages on
// the session are lost, both RIB entries are dropped, and each endpoint
// re-runs selection (propagating withdrawals as needed).
func (s *Net) FailLink(a, b asgraph.AS) {
	s.linkDown[linkKey(a, b)] = true
	// Purge in-flight messages on the failed session, both directions.
	kept := s.queue[:0]
	for _, m := range s.queue {
		if (m.from == a && m.to == b) || (m.from == b && m.to == a) {
			continue
		}
		kept = append(kept, m)
	}
	s.queue = kept
	delete(s.rib[a], b)
	delete(s.rib[b], a)
	delete(s.sentTo[a], b)
	delete(s.sentTo[b], a)
	s.reselect(a)
	s.reselect(b)
}

// RestoreLink brings the link back up; both endpoints re-advertise their
// current route over it subject to the export policy.
func (s *Net) RestoreLink(a, b asgraph.AS) {
	delete(s.linkDown, linkKey(a, b))
	s.refreshSession(a, b)
	s.refreshSession(b, a)
}

func (s *Net) refreshSession(from, to asgraph.AS) {
	if s.chosen[from] != nil && s.mayExport(from, to) {
		s.enqueueUpdate(from, to)
	}
}

func linkKey(a, b asgraph.AS) [2]asgraph.AS {
	if a > b {
		a, b = b, a
	}
	return [2]asgraph.AS{a, b}
}

// deliverable returns the queue indices of messages that are first in
// line on their (from, to) session. BGP sessions are FIFO: a schedule may
// interleave sessions arbitrarily but must never reorder updates within
// one session, or stale announcements could overwrite fresh ones.
func (s *Net) deliverable() []int {
	seen := make(map[[2]asgraph.AS]bool, len(s.queue))
	var out []int
	for i, m := range s.queue {
		k := [2]asgraph.AS{m.from, m.to}
		if !seen[k] {
			seen[k] = true
			out = append(out, i)
		}
	}
	return out
}

// step delivers the queued message at index i (which must be
// session-deliverable).
func (s *Net) step(i int) {
	msg := s.queue[i]
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	s.deliver(msg)
	s.steps++
}

// Run drives the simulation until quiescence under FIFO delivery.
// It panics if the network fails to converge within maxSteps (pass 0 for
// a generous default), which with consistent placements would indicate a
// simulator bug (Theorem 2.1 guarantees convergence).
func (s *Net) Run(maxSteps int) int {
	return s.run(maxSteps, nil)
}

// RunRandom drives the simulation to quiescence delivering queued
// messages in an order chosen by rng — a fair but adversarial activation
// schedule for convergence testing.
func (s *Net) RunRandom(maxSteps int, rng *rand.Rand) int {
	return s.run(maxSteps, rng)
}

func (s *Net) run(maxSteps int, rng *rand.Rand) int {
	if maxSteps == 0 {
		maxSteps = 500*s.g.N()*s.g.N() + 100000
	}
	start := s.steps
	for len(s.queue) > 0 {
		if s.steps-start >= maxSteps {
			panic("bgpsim: no convergence within step budget")
		}
		if rng == nil {
			s.step(0) // FIFO: the head is always session-deliverable
			continue
		}
		idxs := s.deliverable()
		s.step(idxs[rng.Intn(len(idxs))])
	}
	return s.steps - start
}

// RouteOf returns v's currently selected route (nil if none).
func (s *Net) RouteOf(v asgraph.AS) *Route { return s.chosen[v] }

// Happy reports whether v currently routes to the legitimate destination
// (i.e. has a route that does not traverse the attacker). The origin and
// attacker themselves are not sources.
func (s *Net) Happy(v asgraph.AS) bool {
	r := s.chosen[v]
	return r != nil && (s.attacker == asgraph.None || !r.Contains(s.attacker))
}

// deliver processes one announcement or withdrawal at msg.to.
func (s *Net) deliver(msg message) {
	if s.linkDown[linkKey(msg.from, msg.to)] {
		return // message lost with the session
	}
	v := msg.to
	if msg.route == nil {
		delete(s.rib[v], msg.from)
	} else {
		s.rib[v][msg.from] = msg.route
	}
	s.reselect(v)
}

// reselect re-runs v's BGP decision process; if the choice changed, the
// new route (or withdrawal) is propagated per the export policy Ex.
func (s *Net) reselect(v asgraph.AS) {
	if v == s.origin || v == s.attacker {
		return // origins keep their trivial routes
	}
	var best *Route
	var bestFrom asgraph.AS = asgraph.None
	for from, r := range s.rib[v] {
		if r.Contains(v) {
			continue // loop detection
		}
		if s.linkDown[linkKey(from, v)] {
			continue
		}
		if best == nil || s.prefer(v, from, r, bestFrom, best) {
			best, bestFrom = r, from
		}
	}
	var chosen *Route
	if best != nil {
		path := make([]asgraph.AS, 0, len(best.Path)+1)
		path = append(path, v)
		path = append(path, best.Path...)
		chosen = &Route{
			Path:   path,
			Secure: best.Secure && s.placement[v] != NotDeployed,
		}
	}
	if routesEqual(chosen, s.chosen[v]) {
		return
	}
	s.chosen[v] = chosen
	s.export(v)
}

// prefer reports whether route a (learned from fa) beats route b
// (learned from fb) in v's decision process.
func (s *Net) prefer(v, fa asgraph.AS, a *Route, fb asgraph.AS, b *Route) bool {
	secA, secB := 0, 0
	if s.placement[v] != NotDeployed {
		if a.Secure {
			secA = 1
		}
		if b.Secure {
			secB = 1
		}
	}
	lenA, lenB := a.Len(), b.Len()
	// Under LPk the "class" comparison is the variant's rank, which
	// folds in the length bucket (Appendix K); under the standard model
	// RankClass is just the relationship class.
	classA := s.lp.RankClass(classOf(s.g, v, fa), lenA)
	classB := s.lp.RankClass(classOf(s.g, v, fb), lenB)

	type key [4]int
	var ka, kb key
	switch s.placement[v] {
	case First:
		ka = key{1 - secA, classA, lenA, int(fa)}
		kb = key{1 - secB, classB, lenB, int(fb)}
	case Second:
		ka = key{classA, 1 - secA, lenA, int(fa)}
		kb = key{classB, 1 - secB, lenB, int(fb)}
	default: // Third and NotDeployed (sec bits already zeroed)
		ka = key{classA, lenA, 1 - secA, int(fa)}
		kb = key{classB, lenB, 1 - secB, int(fb)}
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

func classOf(g *asgraph.Graph, v, neighbor asgraph.AS) policy.Class {
	switch g.Rel(v, neighbor) {
	case asgraph.RelCustomer:
		return policy.ClassCustomer
	case asgraph.RelPeer:
		return policy.ClassPeer
	default:
		return policy.ClassProvider
	}
}

// mayExport applies Ex: customer routes (and origin announcements) go to
// everyone; peer and provider routes go to customers only.
func (s *Net) mayExport(v, to asgraph.AS) bool {
	if s.linkDown[linkKey(v, to)] {
		return false
	}
	if v == s.origin || v == s.attacker {
		return true
	}
	r := s.chosen[v]
	if r == nil {
		return false
	}
	next := r.Path[1] // v's next hop
	if s.g.Rel(v, next) == asgraph.RelCustomer {
		return true
	}
	return s.g.Rel(v, to) == asgraph.RelCustomer
}

// export (re-)announces v's current route to every eligible neighbor and
// withdraws it from neighbors that are no longer eligible.
func (s *Net) export(v asgraph.AS) {
	forAll := func(ns []asgraph.AS) {
		for _, to := range ns {
			if s.mayExport(v, to) {
				s.enqueueUpdate(v, to)
			} else if s.sentTo[v][to] {
				delete(s.sentTo[v], to)
				s.queue = append(s.queue, message{from: v, to: to, route: nil})
			}
		}
	}
	forAll(s.g.Customers(v))
	forAll(s.g.Peers(v))
	forAll(s.g.Providers(v))
}

func (s *Net) enqueueUpdate(v, to asgraph.AS) {
	r := s.chosen[v]
	secure := r.Secure && s.placement[v] != NotDeployed
	if v == s.attacker {
		secure = false // the bogus path is sent via legacy BGP
	}
	s.sentTo[v][to] = true
	s.queue = append(s.queue, message{
		from:  v,
		to:    to,
		route: &Route{Path: r.Path, Secure: secure},
	})
}

func routesEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Secure != b.Secure || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}
