package exp

import (
	"fmt"
	"math"
	"sync"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/maxk"
	"sbgp/internal/policy"
	"sbgp/internal/rootcause"
	"sbgp/internal/runner"
)

// Report is the paper report of one workload: each field runs its
// experiment on first call and returns the same value after, so the
// printed report and the claims table read the same values and a reader
// pays only for what it reads.
type Report struct {
	W *Workload
	// Plain is the unaugmented scenario's report when W is its Appendix
	// J rerun on the IXP-augmented graph, else nil.
	Plain *Report

	Base, BaseLP2                                 func() runner.Metric                          // E1; E26
	Part, PartLP2                                 func() runner.PartitionFractions              // E2; E26
	BySource, ByDest, ByDestLP2, ByAttacker       func() []runner.PartitionFractions            // E6, E3/E4, Figure 25, E5
	Tier12, CPRollout, Tier2                      func() []RolloutPoint                         // E7, E9, E12
	Tier12Simplex, CPRolloutSimplex, Tier2Simplex func() []RolloutPoint                         // the same with simplex stubs: Figure 7's error bars
	Tier12Deltas, Tier2Deltas, NonStubDeltas      func() [policy.NumModels][]float64            // E8/E10, E11, E13
	Early                                         [NumEarlyAdopters]func() EarlyAdopterResult   // E14
	CPFate                                        func() []rootcause.Accounting                 // E15, per CP of W.Meta.CPs
	RootCause, RootCauseOutsideS                  func() [policy.NumModels]rootcause.Accounting // E16/E17: all attackers; those outside S
}

// NewReport returns the report of w, no experiment run yet.
func NewReport(w *Workload) *Report {
	last := func(steps []deploy.Step) *core.Deployment { return steps[len(steps)-1].Deployment }
	rollout := func(steps []deploy.Step, D []asgraph.AS) func() []RolloutPoint {
		return sync.OnceValue(func() []RolloutPoint { return w.Rollout(steps, D, std) })
	}
	t2 := deploy.Tier2Rollout(w.G, w.Tiers, false)
	part := sync.OnceValues(func() (runner.PartitionFractions, []runner.PartitionFractions) { return w.Partitions(std) })
	rc := sync.OnceValues(func() (all, outside [policy.NumModels]rootcause.Accounting) { return w.RootCause(std) })
	r := &Report{W: w,
		Base:             sync.OnceValue(func() runner.Metric { return w.Baseline(policy.Sec3rd, std) }),
		BaseLP2:          sync.OnceValue(func() runner.Metric { return w.Baseline(policy.Sec3rd, lp2) }),
		Part:             func() runner.PartitionFractions { p, _ := part(); return p },
		PartLP2:          sync.OnceValue(func() runner.PartitionFractions { p, _ := w.Partitions(lp2); return p }),
		BySource:         func() []runner.PartitionFractions { _, by := part(); return by },
		ByDest:           sync.OnceValue(func() []runner.PartitionFractions { return w.PartitionsByDestTier(std) }),
		ByDestLP2:        sync.OnceValue(func() []runner.PartitionFractions { return w.PartitionsByDestTier(lp2) }),
		ByAttacker:       sync.OnceValue(func() []runner.PartitionFractions { return w.PartitionsByAttackerTier(std) }),
		Tier12:           rollout(w.Tier12, w.D),
		CPRollout:        rollout(deploy.Tier12CPRollout(w.G, w.Tiers, w.Meta.CPs, false), w.Meta.CPs),
		Tier2:            rollout(t2, w.D),
		Tier12Simplex:    rollout(deploy.Tier12Rollout(w.G, w.Tiers, true), w.D),
		CPRolloutSimplex: rollout(deploy.Tier12CPRollout(w.G, w.Tiers, w.Meta.CPs, true), w.Meta.CPs),
		Tier2Simplex:     rollout(deploy.Tier2Rollout(w.G, w.Tiers, true), w.D),
		Tier12Deltas:     sync.OnceValue(func() [policy.NumModels][]float64 { return w.SecureDestDeltas(last(w.Tier12), std) }),
		Tier2Deltas:      sync.OnceValue(func() [policy.NumModels][]float64 { return w.SecureDestDeltas(last(t2), std) }),
		NonStubDeltas: sync.OnceValue(func() [policy.NumModels][]float64 {
			return w.SecureDestDeltas(deploy.Build(w.G, w.Tiers, deploy.Spec{AllNonStubs: true}), std)
		}),
		CPFate:            sync.OnceValue(func() []rootcause.Accounting { _, accs := w.CPFate(policy.Sec3rd, std); return accs }),
		RootCause:         func() [policy.NumModels]rootcause.Accounting { all, _ := rc(); return all },
		RootCauseOutsideS: func() [policy.NumModels]rootcause.Accounting { _, out := rc(); return out },
	}
	for i := range r.Early {
		r.Early[i] = sync.OnceValue(func() EarlyAdopterResult { return w.EarlyAdopter(i, std) })
	}
	return r
}

var std, lp2 = policy.Standard, policy.LP2

const sec1, sec2, sec3 = policy.Sec1st, policy.Sec2nd, policy.Sec3rd

// Gadget is E24: whether the Appendix I gadget of the set cover
// {0,1},{1,2},{0,2} with the given γ is satisfiable (Theorem 5.1).
func Gadget(gamma int) bool {
	return maxk.BuildGadget(3, [][]int{{0, 1}, {1, 2}, {0, 2}}, gamma).Satisfiable(policy.Sec3rd)
}

// A Claim is one of the paper's claims as a checkable row: a statement
// with its paper reference, the value it reads from a workload's Report
// and the bound that value must meet. The report prints each section's
// rows; TestPaperClaims evaluates every row on five seeds, plain and
// IXP-augmented.
type Claim struct {
	// ID is "<experiment>.<name>"; the experiment names the report
	// section that prints the row.
	ID, Ref, Statement string
	Bound              Bound
	Kind               Kind
	Value              func(*Report) float64
}

// Kind flags a claim; the zero Kind is a fraction, printed in percent.
type Kind uint8

const (
	// Count: the value is a count.
	Count Kind = 1 << iota
	// Theorem: the claim follows from the paper's theorems or the model's
	// definitions, so it must hold on every workload.
	Theorem
	// IXP: the claim is about the IXP-augmented graph only.
	IXP
)

// A Bound is a closed interval, or an open one when Open is set.
type Bound struct {
	Min, Max float64
	Open     bool
}

// Tol is the one tolerance of every "≈ x" claim: within ±20% of x. A
// claim's statement gives its bound; "≈" is the only one it abbreviates.
const Tol = 0.2

const eps = 1e-9 // float slack of the equalities and orderings

var inf = math.Inf(1)

func atLeast(x float64) Bound     { return Bound{x, inf, false} }
func above(x float64) Bound       { return Bound{x, inf, true} }
func below(x float64) Bound       { return Bound{-inf, x, true} }
func within(lo, hi float64) Bound { return Bound{lo, hi, false} }
func approx(x float64) Bound      { return Bound{x * (1 - Tol), x * (1 + Tol), false} }
func exactly(x float64) Bound     { return Bound{x - eps, x + eps, false} }

// Holds reports whether v meets the bound.
func (b Bound) Holds(v float64) bool {
	if b.Open {
		return v > b.Min && v < b.Max
	}
	return v >= b.Min && v <= b.Max
}

// Margin is v's distance inside the bound; negative on a miss.
func (b Bound) Margin(v float64) float64 { return min(v-b.Min, b.Max-v) }

// Format renders a value of the claim: a count, or a fraction in percent.
func (c *Claim) Format(v float64) string {
	if c.Kind&Count != 0 {
		return fmt.Sprintf("%g", math.Round(1e6*v)/1e6+0)
	}
	return fmt.Sprintf("%.1f%%", math.Round(1000*v)/10+0) // +0 folds −0
}

// Claims is the paper's claims table in report order: every statement
// the report makes about the paper, with the paper's bound, and every
// property the experiments are tested for. Fractions read security 3rd
// and the standard LP unless a statement says otherwise.
var Claims = []Claim{
	{"E27.sizes", "Table 1", "13 Tier 1s, 100 Tier 2s and 17 CPs: miscount = 0", exactly(0), Count, miscount},
	{"E27.all", "Table 1", "the tiers partition the ASes: Σ tier sizes − |V| = 0", exactly(0), Count, unclassified},

	{"E1.lo60", "§4.2", "baseline lower bound ≥60%", atLeast(0.60), 0, func(r *Report) float64 { return r.Base().Lo }},
	{"E1.band", "§4.2", "baseline lower bound in the plausible 45–85% band", within(0.45, 0.85), 0, func(r *Report) float64 { return r.Base().Lo }},
	{"E1.hilo", "§4.2", "baseline upper − lower bound ≥ 0", atLeast(0), 0, func(r *Report) float64 { return r.Base().Hi - r.Base().Lo }},

	{"E2.ub1", "Fig 3", "upper bound on H(S) ∀S ≈100% (sec 1st)", approx(1.00), 0, func(r *Report) float64 { p := r.Part(); return p.UpperBound(sec1) }},
	{"E2.ub2", "Fig 3", "upper bound on H(S) ∀S ≈89% (sec 2nd)", approx(0.89), 0, func(r *Report) float64 { p := r.Part(); return p.UpperBound(sec2) }},
	{"E2.ub3", "Fig 3", "upper bound on H(S) ∀S ≈75% (sec 3rd)", approx(0.75), 0, func(r *Report) float64 { p := r.Part(); return p.UpperBound(sec3) }},
	{"E2.doomed", "Fig 3", "doomed grows sec 1st ≤ 2nd ≤ 3rd: smaller step ≥ 0", atLeast(-eps), 0, func(r *Report) float64 {
		f := r.Part().Frac
		return ordered(f[sec1][core.CatDoomed], f[sec2][core.CatDoomed], f[sec3][core.CatDoomed])
	}},
	{"E2.prot1", "§4.3.2", "sec 1st: essentially everyone protectable, ≥90%", atLeast(0.9), 0, func(r *Report) float64 { return r.Part().Frac[sec1][core.CatProtectable] }},
	{"E2.imm3", "Thm 6.1", "immune − baseline lower bound = 0", exactly(0), Theorem, func(r *Report) float64 { return r.Part().Frac[sec3][core.CatImmune] - r.Base().Lo }},

	{"E3.t1doom3", "Fig 4", "Tier 1 destinations ≈80% doomed", approx(0.80), 0, func(r *Report) float64 { return doomed(r.ByDest(), asgraph.TierT1) }},
	{"E3.t1doom2", "Fig 5", "Tier 1 destinations ≈80% doomed (sec 2nd)", approx(0.80), 0, func(r *Report) float64 { return r.ByDest()[asgraph.TierT1].Frac[sec2][core.CatDoomed] }},
	{"E3.head", "Fig 4", "8–15% headroom elsewhere: protectable, farthest other destination tier", within(0.08, 0.15), 0, func(r *Report) float64 {
		return farthest(others(r.ByDest(), core.CatProtectable, asgraph.TierT1), 0.115)
	}},
	{"E3.t1most", "Fig 4", "Tier 1 destinations the most doomed: Tier 1 − next tier ≥ 0", atLeast(0), 0, func(r *Report) float64 {
		return doomed(r.ByDest(), asgraph.TierT1) - maxOf(others(r.ByDest(), core.CatDoomed, asgraph.TierT1))
	}},

	{"E5.grow", "Fig 6", "attacker strength grows stub→Tier 2: doomed, Tier 2 − stub attackers > 0", above(0), 0, func(r *Report) float64 {
		return doomed(r.ByAttacker(), asgraph.TierT2) - doomed(r.ByAttacker(), asgraph.TierStub)
	}},
	{"E5.collapse", "Fig 6", "then collapses for Tier 1 attackers: doomed, Tier 2 − Tier 1 attackers > 0", above(0), 0, func(r *Report) float64 {
		return doomed(r.ByAttacker(), asgraph.TierT2) - doomed(r.ByAttacker(), asgraph.TierT1)
	}},
	{"E5.t1imm", "§4.7", "Tier 1 attackers leave most sources immune, ≥60%", atLeast(0.6), 0, func(r *Report) float64 { return immune(r.ByAttacker(), asgraph.TierT1) }},

	{"E6.imm", "§4.7", "every source tier looks alike: ≈60% immune, farthest tier", approx(0.60), 0, func(r *Report) float64 { return farthest(others(r.BySource(), core.CatImmune, none), 0.60) }},
	{"E6.doom", "§4.7", "every source tier looks alike: ≈25% doomed, farthest tier", approx(0.25), 0, func(r *Report) float64 { return farthest(others(r.BySource(), core.CatDoomed, none), 0.25) }},
	{"E6.prot", "§4.7", "every source tier looks alike: ≈15% protectable, farthest tier", approx(0.15), 0, func(r *Report) float64 {
		return farthest(others(r.BySource(), core.CatProtectable, none), 0.15)
	}},

	{"E7.d1", "Fig 7(a)", "last step ≈ +24% (sec 1st)", approx(0.24), 0, func(r *Report) float64 { return delta(r.Tier12(), sec1) }},
	{"E7.d23", "Fig 7(a)", "small, 2nd ≈ 3rd: last-step ΔH, 3rd / 2nd ≈ 100%", approx(1), 0, func(r *Report) float64 { return delta(r.Tier12(), sec3) / delta(r.Tier12(), sec2) }},
	{"E7.simplex", "§5.3.2", "simplex stubs barely move the needle: last-step ΔH − simplex ΔH in −5..+15 pp, farthest model", within(-0.05, 0.15), 0, simplexGap},
	{"E7.order", "Fig 7(a)", "last-step ΔH sec 1st ≥ 2nd ≥ 3rd: smaller step ≥ 0", atLeast(-eps), 0, func(r *Report) float64 {
		return ordered(delta(r.Tier12(), sec3), delta(r.Tier12(), sec2), delta(r.Tier12(), sec1))
	}},
	{"E7.mono", "Thm 6.1", "securing ASes never hurts: last-step ΔH ≥ 0", atLeast(-eps), Theorem, func(r *Report) float64 { return delta(r.Tier12(), sec3) }},

	{"E8.d2", "Fig 7(b)", "sec 2nd reaches +13–20% for secure destinations by the last step", within(0.13, 0.20), 0, func(r *Report) float64 { return MeanDelta(r.Tier12Deltas()[sec2]) }},

	{"E9.d1", "Fig 8", "≥26% (sec 1st) at the last step", atLeast(0.26), 0, func(r *Report) float64 { return delta(r.CPRollout(), sec1) }},
	{"E9.d2", "Fig 8", "≈9.4% (sec 2nd) at the last step", approx(0.094), 0, func(r *Report) float64 { return delta(r.CPRollout(), sec2) }},
	{"E9.d3", "Fig 8", "≈4% (sec 3rd) at the last step", approx(0.04), 0, func(r *Report) float64 { return delta(r.CPRollout(), sec3) }},

	{"E11.slow", "Fig 11", "slower growth: last-step ΔH, Tier 1+2 − Tier 2-only > 0, smallest model", above(0), 0, func(r *Report) float64 {
		a, b := r.Tier12(), r.Tier2()
		return min(delta(a, sec1)-delta(b, sec1), delta(a, sec2)-delta(b, sec2), delta(a, sec3)-delta(b, sec3))
	}},
	{"E11.gap", "Fig 11", "the sec 1st vs 2nd gap narrows without Tier 1s: Tier 1+2 gap − Tier 2-only gap > 0", above(0), 0, func(r *Report) float64 {
		a, b := r.Tier12(), r.Tier2()
		return delta(a, sec1) - delta(a, sec2) - delta(b, sec1) + delta(b, sec2)
	}},

	{"E13.d1", "Fig 12", "worst-case ΔH ≈6.2% (sec 1st, mean)", approx(0.062), 0, func(r *Report) float64 { return MeanDelta(r.NonStubDeltas()[sec1]) }},
	{"E13.d2", "Fig 12", "worst-case ΔH ≈4.7% (sec 2nd, mean)", approx(0.047), 0, func(r *Report) float64 { return MeanDelta(r.NonStubDeltas()[sec2]) }},
	{"E13.d3", "Fig 12", "worst-case ΔH ≈2.2% (sec 3rd, mean)", approx(0.022), 0, func(r *Report) float64 { return MeanDelta(r.NonStubDeltas()[sec3]) }},
	{"E13.near", "Fig 12", "sec 2nd nearly reaches sec 1st: mean ΔH, 2nd / 1st ≈ 100%", approx(1), 0, func(r *Report) float64 {
		d := r.NonStubDeltas()
		return MeanDelta(d[sec2]) / MeanDelta(d[sec1])
	}},

	{"E14.t1", "§5.3.1", "T1s+stubs <0.2% (sec 2nd/3rd, larger)", below(0.002), 0, func(r *Report) float64 { d := r.Early[0]().MeanDelta; return max(d[sec2], d[sec3]) }},
	{"E14.t2", "§5.3.1", "13 T2s+stubs ≈1% (sec 2nd/3rd, farthest)", approx(0.01), 0, func(r *Report) float64 { d := r.Early[2]().MeanDelta; return farthest(d[sec2:], 0.01) }},
	{"E14.pick", "§5.3.1", "pick Tier 2s: 13 T2s − T1s > 0 (sec 2nd/3rd, smaller)", above(0), 0, tier2OverTier1},
	{"E14.compete", "§5.3.1", "Tier 2s at least competitive: 13 T2s − T1s ≥ −5 pp (sec 2nd/3rd, smaller)", atLeast(-0.05), 0, tier2OverTier1},

	{"E15.most", "Fig 13", "most secure routes to CPs are lost to downgrades: downgraded share > 50%", above(0.5), 0, func(r *Report) float64 {
		return cpShare(r, func(a rootcause.Accounting) float64 { return a.Downgraded })
	}},
	{"E15.rest", "Fig 13", "the rest sit on immune sources: protected share = 0", exactly(0), 0, func(r *Report) float64 {
		return cpShare(r, func(a rootcause.Accounting) float64 { return a.Protected })
	}},

	{"E17.dg1", "Thm 3.1", "no downgrades under sec 1st, attackers outside S", exactly(0), Theorem, func(r *Report) float64 { return r.RootCauseOutsideS()[sec1].Downgraded }},
	{"E17.dg23", "Table 3", "downgrades under sec 2nd and 3rd: smaller > 0", above(0), 0, func(r *Report) float64 { rc := r.RootCause(); return min(rc[sec2].Downgraded, rc[sec3].Downgraded) }},
	{"E17.cb", "Table 3", "collateral benefits under every model: smallest > 0", above(0), 0, func(r *Report) float64 {
		rc := r.RootCause()
		return min(rc[sec1].CollateralBenefit, rc[sec2].CollateralBenefit, rc[sec3].CollateralBenefit)
	}},
	{"E17.cd12", "Table 3", "collateral damages under sec 1st and 2nd: smaller > 0", above(0), 0, func(r *Report) float64 {
		rc := r.RootCause()
		return min(rc[sec1].CollateralDamage, rc[sec2].CollateralDamage)
	}},
	{"E17.cd3", "Thm 6.1", "no collateral damage under sec 3rd", exactly(0), Theorem, func(r *Report) float64 { return r.RootCause()[sec3].CollateralDamage }},

	{"E24.sat2", "Thm 5.1", "set cover {0,1},{1,2},{0,2} with γ=2: satisfiable (1)", exactly(1), Count | Theorem, func(*Report) float64 { return b2f(Gadget(2)) }},
	{"E24.sat1", "Thm 5.1", "same family with γ=1: not satisfiable (0)", exactly(0), Count | Theorem, func(*Report) float64 { return b2f(Gadget(1)) }},

	{"E26.head", "Fig 24", "LP2: headroom shrinks to ~11–13% (protectable)", within(0.11, 0.13), 0, func(r *Report) float64 { return r.PartLP2().Frac[sec3][core.CatProtectable] }},
	{"E26.high", "Fig 25", "LP2: high tiers mostly immune, Tier 1 and 2 destinations > 50% (smaller)", above(0.5), 0, func(r *Report) float64 {
		return min(immune(r.ByDestLP2(), asgraph.TierT1), immune(r.ByDestLP2(), asgraph.TierT2))
	}},
	{"E26.gain", "Fig 25", "LP2: high-degree tiers gain immunity, LP2 − standard at Tier 1/2 destinations > 0 (smaller)", above(0), 0, func(r *Report) float64 {
		a, b := r.ByDestLP2(), r.ByDest()
		return min(immune(a, asgraph.TierT1)-immune(b, asgraph.TierT1), immune(a, asgraph.TierT2)-immune(b, asgraph.TierT2))
	}},
	{"E26.imm3", "Thm 6.1", "LP2: immune − baseline lower bound = 0", exactly(0), Theorem, func(r *Report) float64 { return r.PartLP2().Frac[sec3][core.CatImmune] - r.BaseLP2().Lo }},

	{"E25.lo62", "App. J", "baseline lower bound ≈62% on the IXP-augmented graph", approx(0.62), IXP, func(r *Report) float64 { return r.Base().Lo }},
	{"E25.peers", "App. J", "IXP augmentation adds peer links: added > 0", above(0), IXP | Count, func(r *Report) float64 { return float64(r.W.G.NumPeerLinks() - r.Plain.W.G.NumPeerLinks()) }},
}

// miscount is E27's distance from Table 1's tier sizes.
func miscount(r *Report) float64 {
	n := 0
	for t, want := range [...]int{asgraph.TierT1: 13, asgraph.TierT2: 100, asgraph.TierCP: 17} {
		if got := len(r.W.Tiers.Members[t]); want > 0 {
			n += max(want-got, got-want)
		}
	}
	return float64(n)
}

// unclassified is Σ tier sizes − |V|.
func unclassified(r *Report) float64 {
	n := -r.W.G.N()
	for _, m := range r.W.Tiers.Members {
		n += len(m)
	}
	return float64(n)
}

// ordered is the smaller of the two steps x1 → x2 → x3: ≥ 0 iff they
// never decrease.
func ordered(x1, x2, x3 float64) float64 { return min(x2-x1, x3-x2) }

// delta is a rollout's last-step ΔH lower bound under m (zero after a
// failed evaluation).
func delta(pts []RolloutPoint, m policy.Model) float64 { return last(pts).Delta[m].Lo }

func last(pts []RolloutPoint) RolloutPoint {
	if len(pts) == 0 {
		return RolloutPoint{}
	}
	return pts[len(pts)-1]
}

// simplexGap is E7's last-step ΔH less its simplex-stub ΔH, the model's
// farthest from the middle of E7.simplex's bound.
func simplexGap(r *Report) float64 {
	var gaps []float64
	for _, m := range policy.Models {
		gaps = append(gaps, delta(r.Tier12(), m)-delta(r.Tier12Simplex(), m))
	}
	return farthest(gaps, 0.05)
}

func doomed(by []runner.PartitionFractions, t asgraph.Tier) float64 {
	return by[t].Frac[sec3][core.CatDoomed]
}

func immune(by []runner.PartitionFractions, t asgraph.Tier) float64 {
	return by[t].Frac[sec3][core.CatImmune]
}

const none = asgraph.Tier(asgraph.NumTiers) // no tier

// others is one category's security 3rd fraction in every tier bucket
// with data but skip's.
func others(by []runner.PartitionFractions, c core.Category, skip asgraph.Tier) []float64 {
	var out []float64
	for t, b := range by {
		if f := b.Frac[sec3]; asgraph.Tier(t) != skip && f[0]+f[1]+f[2] > 0 {
			out = append(out, f[c])
		}
	}
	return out
}

// farthest is the value of xs farthest from x: every value lies in a
// bound symmetric about x iff it does.
func farthest(xs []float64, x float64) float64 {
	far := x
	for _, v := range xs {
		if math.Abs(v-x) > math.Abs(far-x) {
			far = v
		}
	}
	return far
}

func maxOf(xs []float64) float64 {
	m := -inf
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// tier2OverTier1 is E14's 13 Tier 2s' mean ΔH less the Tier 1s', the
// smaller of sec 2nd's and 3rd's.
func tier2OverTier1(r *Report) float64 {
	t1, t2 := r.Early[0]().MeanDelta, r.Early[2]().MeanDelta
	return min(t2[sec2]-t1[sec2], t2[sec3]-t1[sec3])
}

// cpShare is one E15 fate's share of the secure routes to every CP.
func cpShare(r *Report, fate func(rootcause.Accounting) float64) float64 {
	var part, secure float64
	for _, a := range r.CPFate() {
		part, secure = part+fate(a), secure+a.SecureNormal
	}
	return part / secure
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
