// Package rootcause performs the root-cause analysis of Section 6: it
// decomposes changes in the security metric into the phenomena of
// Table 3 — protocol downgrades, collateral benefits, collateral damages
// — plus the fate of secure routes during attacks (lost to downgrade,
// "wasted" on ASes that were already happy, or actually protective),
// reproducing the accounting of Figures 13 and 16.
//
// All happiness comparisons use the metric's lower bound (tiebreak-
// dependent ASes counted unhappy), matching the paper's presentation of
// the root-cause figures.
package rootcause

import (
	"context"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
)

// Accounting aggregates, over a set of attacker-destination pairs, the
// average fraction of source ASes in each root-cause category. All
// fields are fractions of source ASes averaged over pairs.
type Accounting struct {
	// SecureNormal: sources with a fully secure route under normal
	// conditions (before any attack).
	SecureNormal float64
	// Downgraded: sources whose secure route was lost to a protocol
	// downgrade attack.
	Downgraded float64
	// WastedOnHappy: sources that keep a secure route during the attack
	// but would have been happy in the baseline (S = ∅) anyway.
	WastedOnHappy float64
	// Protected: sources that keep a secure route during the attack and
	// would have been unhappy in the baseline — the only secure routes
	// that directly improve the metric.
	Protected float64
	// CollateralBenefit: insecure sources unhappy in the baseline but
	// happy under S (Section 6.1.2).
	CollateralBenefit float64
	// CollateralDamage: insecure sources happy in the baseline but
	// unhappy under S (Section 6.1.1).
	CollateralDamage float64
	// MetricChange is H(S) − H(∅) (lower bounds) over the same pairs.
	MetricChange float64
	// Pairs is the number of attacker-destination pairs averaged.
	Pairs int
}

// The per-model columns of a root-cause row: source ASes, summed over pairs.
const (
	cSecureNormal = iota
	cDowngraded
	cWasted
	cProtected
	cBenefit
	cDamage
	cHappyS
	cHappyBase
	numCounts
)

// Width is the row width of a root-cause walk over nmodels models: the
// counts above per model, then the pair count.
func Width(nmodels int) int { return nmodels*numCounts + 1 }

// Kernel returns the runner.WalkPairs kernel constructor of the
// accounting under dep; walked destination-major (outer D, inner M) it
// fills one Width(len(models)) row per destination. A pair joins three
// per-AS states — the normal-conditions run under dep (kept per
// destination), the attack at S = ∅ (one run per pair: without secure
// ASes every model yields the same outcome) and the attack under dep (one
// run per model) — on one engine, switched with SetModel.
func Kernel(g *asgraph.Graph, models []policy.Model, lp policy.LocalPref, dep *core.Deployment) func() runner.PairKernel {
	n := g.N()
	return func() runner.PairKernel {
		eng := core.NewEngineLP(g, policy.Sec1st, lp)
		secN := make([]bool, len(models)*n) // secure under normal conditions, per model
		baseOK := make([]bool, n)           // happy (lower bound) in the baseline attack
		lastD := asgraph.None
		return func(row []int64, d, m asgraph.AS) {
			if d != lastD {
				for k, model := range models {
					eng.SetModel(model)
					copy(secN[k*n:(k+1)*n], eng.RunNormal(d, dep).Secure)
				}
				lastD = d
			}
			base := eng.Run(d, m, nil)
			for v := range baseOK {
				baseOK[v] = base.Label[v] == core.LabelDest
			}
			for k, model := range models {
				eng.SetModel(model)
				attack := eng.Run(d, m, dep)
				c, sec := row[k*numCounts:], secN[k*n:(k+1)*n]
				for v := asgraph.AS(0); int(v) < n; v++ {
					if v == d || v == m {
						continue
					}
					happy := attack.Label[v] == core.LabelDest
					if happy {
						c[cHappyS]++
					}
					if baseOK[v] {
						c[cHappyBase]++
					}
					if sec[v] {
						c[cSecureNormal]++
						switch {
						case !attack.Secure[v]:
							c[cDowngraded]++
						case baseOK[v]:
							c[cWasted]++
						default:
							c[cProtected]++
						}
					}
					if !dep.FullSecure(v) && !dep.OriginSecure(v) {
						if happy && !baseOK[v] {
							c[cBenefit]++
						}
						if !happy && baseOK[v] {
							c[cDamage]++
						}
					}
				}
			}
			row[len(row)-1]++
		}
	}
}

// Accounts folds a root-cause row — one destination's, or any sum of
// rows — over an n-AS graph into one Accounting per model of its walk.
func Accounts(n int, row []int64) []Accounting {
	out := make([]Accounting, (len(row)-1)/numCounts)
	pairs := row[len(row)-1]
	den := float64(pairs) * float64(n-2)
	for k := range out {
		out[k].Pairs = int(pairs)
		if den == 0 {
			continue
		}
		c, a := row[k*numCounts:], &out[k]
		a.SecureNormal = float64(c[cSecureNormal]) / den
		a.Downgraded = float64(c[cDowngraded]) / den
		a.WastedOnHappy = float64(c[cWasted]) / den
		a.Protected = float64(c[cProtected]) / den
		a.CollateralBenefit = float64(c[cBenefit]) / den
		a.CollateralDamage = float64(c[cDamage]) / den
		a.MetricChange = float64(c[cHappyS]-c[cHappyBase]) / den
	}
	return out
}

// Evaluate computes the accounting of every model, indexed by model, for
// one deployment over attackers M and destinations D. Table 3's presence
// matrix is its fields read as "> 0".
func Evaluate(ctx context.Context, g *asgraph.Graph, lp policy.LocalPref, dep *core.Deployment, M, D []asgraph.AS, workers int) (out [policy.NumModels]Accounting, err error) {
	width := Width(policy.NumModels)
	rows, err := runner.WalkPairs(ctx, D, M, workers, width, Kernel(g, policy.Models[:], lp, dep))
	if err != nil {
		return out, err
	}
	copy(out[:], Accounts(g.N(), runner.SumRows(rows, width)))
	return out, nil
}
