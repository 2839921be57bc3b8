// Package policy defines the interdomain routing policy models of the
// paper (Section 2.2): the standard insecure decision process
// (LP → SP → TB with export rule Ex), the three placements of the
// route-security step SecP (security 1st, 2nd, 3rd), and the LPk
// local-preference variants of Appendix K.
//
// The package's main export is PlanFor, which compiles a (security model,
// local-preference variant) pair into an ordered list of route-fixing
// stages. The stage list is exactly the subroutine schedule of the paper's
// Appendix B — e.g. security 2nd compiles to FSCR, FCR, FPeeR, FSPrvR,
// FPrvR — generalized so that the LPk variants compile into the same
// machinery. internal/core executes plans.
package policy

import "fmt"

// Model selects where the SecP step ("prefer a secure route over an
// insecure route") sits in the BGP decision process of a secure AS.
type Model uint8

const (
	// Sec1st places SecP before local preference: security trumps
	// economics and path length. Most protective, least popular
	// (10% of surveyed operators).
	Sec1st Model = iota
	// Sec2nd places SecP between local preference and path length:
	// economics first, then security (20% of surveyed operators).
	Sec2nd
	// Sec3rd places SecP between path length and the intradomain
	// tiebreak: economics and length first (41% of surveyed operators;
	// the model also used by Gill et al.).
	Sec3rd

	// NumModels is the number of security models.
	NumModels = int(Sec3rd) + 1
)

// Models lists all three security models in order, for range loops in
// experiments and tests.
var Models = [NumModels]Model{Sec1st, Sec2nd, Sec3rd}

// String returns the name used in the paper's figures.
func (m Model) String() string {
	switch m {
	case Sec1st:
		return "security 1st"
	case Sec2nd:
		return "security 2nd"
	case Sec3rd:
		return "security 3rd"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// Survey shares from the 100-operator survey (Gill, Goldberg, Schapira,
// NANOG'56) cited in Section 2.2.3 of the paper. The remaining operators
// declined to answer.
const (
	SurveySec1stPercent = 10
	SurveySec2ndPercent = 20
	SurveySec3rdPercent = 41
)

// Class is the local-preference class of a route, determined by the
// relationship between an AS and its next hop. Lower is more preferred
// under the standard LP model (customer > peer > provider).
type Class uint8

const (
	// ClassCustomer: next hop is a customer (revenue-generating).
	ClassCustomer Class = iota
	// ClassPeer: next hop is a settlement-free peer.
	ClassPeer
	// ClassProvider: next hop is a provider (costly).
	ClassProvider
	// ClassOrigin marks the trivial route at a route's originator (the
	// destination d, or the attacker m announcing the bogus "m, d"
	// path). Origins export to every neighbor.
	ClassOrigin
	// ClassNone marks an AS with no route.
	ClassNone
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	case ClassOrigin:
		return "origin"
	default:
		return "none"
	}
}

// LocalPref selects the local-preference variant.
//
// The zero value is the standard model of Section 2.2.1: all customer
// routes over all peer routes over all provider routes, then shorter
// routes first.
//
// K > 0 selects the LPk variant of Appendix K: customer and peer routes
// interleaved by length up to K (customer length 1, peer length 1,
// customer length 2, ..., peer length K), then customer routes longer
// than K, then peer routes longer than K, then provider routes.
type LocalPref struct {
	// K is the interleaving depth; 0 means the standard LP model.
	K int
}

// MaxLPK bounds the LPk interleaving depth accepted from job specs and
// scenario options. The stage plan is O(K) stages, built per engine and
// walked per run, so an unbounded K is a denial of service, not a model:
// the paper evaluates K = 2, and no route in an Internet-like hierarchy
// approaches 64 hops — beyond that every LPk is the same policy.
const MaxLPK = 64

// Standard is the paper's default local-preference model.
var Standard = LocalPref{}

// LP2 is the Appendix K variant evaluated in Figures 24-25.
var LP2 = LocalPref{K: 2}

// String returns "LP" or "LPk".
func (lp LocalPref) String() string {
	if lp.K == 0 {
		return "LP"
	}
	return fmt.Sprintf("LP%d", lp.K)
}

// RankClass returns the preference rank of a (class, length) pair under
// this local-preference variant; lower ranks are preferred. Length
// influences the rank only through LPk bucketing — the SP (shorter path)
// comparison within a rank is applied separately by the caller.
func (lp LocalPref) RankClass(c Class, length int) int {
	if c == ClassOrigin {
		return -1
	}
	if lp.K == 0 {
		return int(c)
	}
	switch c {
	case ClassCustomer:
		if length <= lp.K {
			return 2 * (length - 1) // c1=0, c2=2, ...
		}
		return 2 * lp.K // customer routes longer than K
	case ClassPeer:
		if length <= lp.K {
			return 2*(length-1) + 1 // p1=1, p2=3, ...
		}
		return 2*lp.K + 1
	default: // provider
		return 2*lp.K + 2
	}
}

// SecPriority describes how the SecP step interacts with route length
// inside a single fixing stage.
type SecPriority uint8

const (
	// SecIgnore: the stage never sees secure candidates (they were
	// exhausted by an earlier secure-only stage) or the model does not
	// let this stage prefer them.
	SecIgnore SecPriority = iota
	// SecBelowLength: among the shortest candidates, secure ones are
	// preferred (SecP between SP and TB — security 3rd).
	SecBelowLength
	// SecAboveLength: a secure candidate is preferred over any shorter
	// insecure candidate in the same class (SecP between LP and SP —
	// security 2nd's peer stage, where secure and insecure candidates
	// meet in one stage).
	SecAboveLength
)

// Stage is one route-fixing pass of the Appendix B algorithms. The engine
// in internal/core executes stages in order; each stage permanently fixes
// the routes of every AS whose best perceivable route falls in the
// stage's class.
type Stage struct {
	// Class is the route class the stage fixes: customer stages are
	// upward BFS (traversing customer→provider edges), peer stages a
	// single relaxation pass over peer edges, provider stages downward
	// BFS (provider→customer edges).
	Class Class
	// SecureOnly restricts the stage to fully secure routes through
	// fully secure ASes (the FSCR/FSPeeR/FSPrvR subroutines).
	SecureOnly bool
	// Sec selects the within-stage security preference.
	Sec SecPriority
	// MaxLen, when positive, bounds the total route length the stage
	// may fix (used by the exact-length classes of the LPk variants;
	// stages are scheduled so no shorter candidates remain).
	MaxLen int
}

// String renames a stage in the paper's terminology where applicable.
func (s Stage) String() string {
	name := map[Class]string{ClassCustomer: "C", ClassPeer: "P", ClassProvider: "V"}[s.Class]
	if s.SecureOnly {
		name += "s"
	}
	if s.MaxLen > 0 {
		name += fmt.Sprintf("(≤%d)", s.MaxLen)
	}
	return name
}

// Plan is an ordered stage schedule plus the metadata the engine needs to
// interpret it.
type Plan struct {
	Model  Model
	LP     LocalPref
	Stages []Stage
}

// PlanFor compiles the stage schedule for a security model under a
// local-preference variant. For the standard LP model the schedules are
// verbatim from Appendix B:
//
//	security 3rd: FCR, FPeeR, FPrvR
//	security 2nd: FSCR, FCR, FPeeR, FSPrvR, FPrvR
//	security 1st: FSCR, FSPeeR, FSPrvR, FCR, FPeeR, FPrvR
//
// For LPk the same subroutines are interleaved by length bucket following
// the class ordering of Appendix K.
func PlanFor(m Model, lp LocalPref) Plan {
	p := Plan{Model: m, LP: lp}
	if lp.K == 0 {
		switch m {
		case Sec3rd:
			p.Stages = []Stage{
				{Class: ClassCustomer, Sec: SecBelowLength},
				{Class: ClassPeer, Sec: SecBelowLength},
				{Class: ClassProvider, Sec: SecBelowLength},
			}
		case Sec2nd:
			p.Stages = []Stage{
				{Class: ClassCustomer, SecureOnly: true},
				{Class: ClassCustomer},
				{Class: ClassPeer, Sec: SecAboveLength},
				{Class: ClassProvider, SecureOnly: true},
				{Class: ClassProvider},
			}
		case Sec1st:
			p.Stages = []Stage{
				{Class: ClassCustomer, SecureOnly: true},
				{Class: ClassPeer, SecureOnly: true},
				{Class: ClassProvider, SecureOnly: true},
				{Class: ClassCustomer},
				{Class: ClassPeer},
				{Class: ClassProvider},
			}
		}
		return p
	}
	// LPk schedules.
	k := lp.K
	switch m {
	case Sec3rd:
		for l := 1; l <= k; l++ {
			p.Stages = append(p.Stages,
				Stage{Class: ClassCustomer, Sec: SecBelowLength, MaxLen: l},
				Stage{Class: ClassPeer, Sec: SecBelowLength, MaxLen: l},
			)
		}
		p.Stages = append(p.Stages,
			Stage{Class: ClassCustomer, Sec: SecBelowLength},
			Stage{Class: ClassPeer, Sec: SecBelowLength},
			Stage{Class: ClassProvider, Sec: SecBelowLength},
		)
	case Sec2nd:
		// Within an exact-length class all candidates share a length,
		// so preferring secure candidates at selection time implements
		// "SecP between LPk and SP" exactly. The open-ended classes
		// (length > K) need secure-only stages first, because a secure
		// route must beat a shorter insecure route of the same class.
		for l := 1; l <= k; l++ {
			p.Stages = append(p.Stages,
				Stage{Class: ClassCustomer, Sec: SecAboveLength, MaxLen: l},
				Stage{Class: ClassPeer, Sec: SecAboveLength, MaxLen: l},
			)
		}
		p.Stages = append(p.Stages,
			Stage{Class: ClassCustomer, SecureOnly: true},
			Stage{Class: ClassCustomer},
			Stage{Class: ClassPeer, Sec: SecAboveLength},
			Stage{Class: ClassProvider, SecureOnly: true},
			Stage{Class: ClassProvider},
		)
	case Sec1st:
		for l := 1; l <= k; l++ {
			p.Stages = append(p.Stages,
				Stage{Class: ClassCustomer, SecureOnly: true, MaxLen: l},
				Stage{Class: ClassPeer, SecureOnly: true, MaxLen: l},
			)
		}
		p.Stages = append(p.Stages,
			Stage{Class: ClassCustomer, SecureOnly: true},
			Stage{Class: ClassPeer, SecureOnly: true},
			Stage{Class: ClassProvider, SecureOnly: true},
		)
		for l := 1; l <= k; l++ {
			p.Stages = append(p.Stages,
				Stage{Class: ClassCustomer, MaxLen: l},
				Stage{Class: ClassPeer, MaxLen: l},
			)
		}
		p.Stages = append(p.Stages,
			Stage{Class: ClassCustomer},
			Stage{Class: ClassPeer},
			Stage{Class: ClassProvider},
		)
	}
	return p
}
