package core

import (
	"fmt"
	"strconv"
	"strings"

	"sbgp/internal/asgraph"
)

// Attack is a pluggable threat-model strategy: it decides which route
// originations seed a run before the stage schedule fixes everyone
// else's routes. The paper's fixed Section 3.1 attacker — the bogus
// one-hop path "m, d" announced via legacy BGP — is OneHopHijack, the
// engine's default; the other strategies vary the announcement while
// reusing the entire stage machinery unchanged.
//
// Implementations must be deterministic and goroutine-safe (Seed is
// called concurrently from independent engines), and must seed the
// destination exactly once.
type Attack interface {
	// Name is a short stable identifier (used by -attack flags and in
	// serialized sweep results).
	Name() string
	// Seed plants the run's origin announcements through the Seeder.
	Seed(s *Seeder)
}

// Seeder is the narrow surface an Attack uses to originate routes. It
// wraps the engine's root-fixing step, exposing the scenario (the
// destination, the attacker, the deployment) and labeling control
// without exposing the engine's scratch state.
type Seeder struct {
	// capture collects the originations: every run first records what
	// the attack plants without touching the engine
	// (Engine.SecurityFree), so the same list serves the security-free
	// predicate, RunAttack's root fixing and RunDelta's dirty-set seeding.
	capture *[]seedRec

	// Dst and Attacker are the run's destination d and attacker m
	// (Attacker is asgraph.None under normal conditions).
	Dst, Attacker asgraph.AS
	// Dep is the run's S*BGP deployment (nil: RPKI-only baseline).
	Dep *Deployment
}

// OriginateDest plants the legitimate origin announcement at the
// destination: length 0, secure iff the deployment signs d's routes,
// labeled happy. Every attack must call it exactly once.
func (s *Seeder) OriginateDest() {
	s.Originate(s.Dst, 0, s.Dep.OriginSecure(s.Dst), LabelDest)
}

// MaxPadHops bounds the claimed path length of a bogus announcement —
// far beyond any AS-graph diameter, and small enough that the int32
// length arithmetic can never overflow.
const MaxPadHops = 1 << 20

// clampHops normalizes a claimed path length into [1, MaxPadHops].
func clampHops(hops int) int {
	if hops < 1 {
		return 1
	}
	if hops > MaxPadHops {
		return MaxPadHops
	}
	return hops
}

// clampLen normalizes an origination length into [0, MaxPadHops]. The
// clamp lives here, in core, so every seeding path — the built-in
// strategies, ParseAttack, scenarios, and custom Attacks calling
// Originate directly — shares one bound and the engine's int32 length
// arithmetic (origination length plus at most one hop per AS) can never
// overflow.
func clampLen(length int32) int32 {
	if length < 0 {
		return 0
	}
	if length > MaxPadHops {
		return MaxPadHops
	}
	return length
}

// AnnounceBogus plants the attacker's bogus announcement: m claims a
// (nonexistent) path of `hops` hops to the destination, so neighbors
// perceive a route of length hops+1 via m. hops = 1 is the paper's
// "m, d"; values outside [1, MaxPadHops] are clamped. The announcement
// travels via legacy BGP, so it is always insecure. No-op under normal
// conditions (no attacker).
func (s *Seeder) AnnounceBogus(hops int) {
	if s.Attacker == asgraph.None {
		return
	}
	s.Originate(s.Attacker, int32(clampHops(hops)), false, LabelAttacker)
}

// Originate is the general labeling hook: it fixes v as a route origin
// with the given perceived length, security, and happiness label.
// Lengths are clamped into [0, MaxPadHops] so no origination can
// overflow the engine's int32 length arithmetic. Fixing the same AS
// twice in one run panics — an origin's route is final by definition.
func (s *Seeder) Originate(v asgraph.AS, length int32, secure bool, label Label) {
	for _, r := range *s.capture {
		if r.v == v {
			panic(fmt.Sprintf("core: attack seeds AS%d twice", v))
		}
	}
	*s.capture = append(*s.capture, seedRec{v: v, len: clampLen(length), secure: secure, label: label})
}

// OneHopHijack is the paper's Section 3.1 threat model and the engine's
// default: the attacker announces the bogus one-hop path "m, d" via
// legacy BGP to all of its neighbors. RPKI origin authentication cannot
// filter it (the true origin d terminates the claimed path), so only
// path validation — S*BGP — helps.
type OneHopHijack struct{}

// Name implements Attack.
func (OneHopHijack) Name() string { return "one-hop" }

// Seed implements Attack.
func (OneHopHijack) Seed(s *Seeder) {
	s.OriginateDest()
	s.AnnounceBogus(1)
}

// NoAttack is the legitimate-origin baseline: only the destination
// originates, and the designated "attacker" m participates as an
// ordinary AS. Useful for normal-conditions censuses through the same
// grid machinery that evaluates attacks.
type NoAttack struct{}

// Name implements Attack.
func (NoAttack) Name() string { return "none" }

// Seed implements Attack.
func (NoAttack) Seed(s *Seeder) { s.OriginateDest() }

// PathPadding is the "smarter attacker" variant of Section 5.2: the
// attacker pads the bogus announcement to claim a path of Hops hops to
// the destination instead of one (perhaps to make the path plausible
// against anomaly detectors). Hops = 1 degenerates to OneHopHijack.
// Longer claimed paths lose more length comparisons, but local
// preference still outranks length, so padding does not neutralize the
// attack.
type PathPadding struct {
	// Hops is the claimed path length; values below 1 are treated as 1.
	Hops int
}

// Name implements Attack.
func (a PathPadding) Name() string {
	return fmt.Sprintf("pad-%d", clampHops(a.Hops))
}

// Seed implements Attack.
func (a PathPadding) Seed(s *Seeder) {
	s.OriginateDest()
	s.AnnounceBogus(a.Hops)
}

// OriginSpoof is the classic prefix hijack the paper's threat model
// deliberately skips past: the attacker claims to originate the
// destination's prefix itself. Because the paper's baseline S = ∅
// already includes universally-deployed RPKI origin authentication
// (Section 4.2), every AS discards the spoofed announcement, and the
// network converges exactly as under normal conditions — RPKI alone
// stops this attack, no S*BGP required. The strategy exists to make
// that reduction executable and testable.
type OriginSpoof struct{}

// Name implements Attack.
func (OriginSpoof) Name() string { return "origin-spoof" }

// Seed implements Attack. The spoofed origination is filtered by every
// recipient's RPKI validation, so no bogus root is planted and the
// attacker routes as an ordinary AS.
func (OriginSpoof) Seed(s *Seeder) { s.OriginateDest() }

// DefaultAttack is the strategy Engine.Run uses: the paper's one-hop
// hijack.
var DefaultAttack Attack = OneHopHijack{}

// Attacks lists the built-in strategies (with PathPadding at its
// smallest non-default setting), for documentation tables and flag
// help.
func Attacks() []Attack {
	return []Attack{OneHopHijack{}, NoAttack{}, PathPadding{Hops: 2}, OriginSpoof{}}
}

// attackChoices spells out every accepted -attack value, aliases
// included, for error messages and flag help. One definition, so the
// parser and its diagnostics cannot drift apart.
var attackChoices = fmt.Sprintf(`"one-hop" (aliases "hijack", "default", ""), "none" (alias "no-attack"), "origin-spoof" (alias "spoof"), or "pad-K" with 1 ≤ K ≤ %d (e.g. "pad-3")`, MaxPadHops)

// ParseAttack resolves a strategy name as accepted by -attack flags:
// "one-hop" (aliases "hijack", "default", ""), "none" (alias
// "no-attack"), "origin-spoof" (alias "spoof"), or "pad-K" for a K-hop
// PathPadding (e.g. "pad-3"). An unrecognized name yields an error
// naming the offending token and every valid choice.
func ParseAttack(name string) (Attack, error) {
	switch name {
	case "", "one-hop", "hijack", "default":
		return OneHopHijack{}, nil
	case "none", "no-attack":
		return NoAttack{}, nil
	case "origin-spoof", "spoof":
		return OriginSpoof{}, nil
	}
	if rest, ok := strings.CutPrefix(name, "pad-"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil || k < 1 || k > MaxPadHops {
			return nil, fmt.Errorf("core: bad padding attack %q: K must be an integer with 1 ≤ K ≤ %d (valid attacks are %s)",
				name, MaxPadHops, attackChoices)
		}
		return PathPadding{Hops: k}, nil
	}
	return nil, fmt.Errorf("core: unknown attack %q (valid attacks are %s)", name, attackChoices)
}
