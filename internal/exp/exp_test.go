package exp

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"sbgp"
	"sbgp/internal/asgraph"
	"sbgp/internal/deploy"
	"sbgp/internal/policy"
	"sbgp/internal/rootcause"
	"sbgp/internal/runner"
)

// scenarioWorkload simulates a scenario and builds its workload.
func scenarioWorkload(maxPerDest int, opts ...sbgp.Option) *Workload {
	sim, err := sbgp.NewScenario(opts...).Simulate()
	if err != nil {
		panic(err)
	}
	w, err := NewWorkload(sim, maxPerDest)
	if err != nil {
		panic(err)
	}
	return w
}

// cells are the -quick report's workloads (800 ASes, 10×12 pairs, 40 per
// destination) on topogen seeds 1–5, plain then IXP-augmented, shared by
// every test that reads them.
var cells = sync.OnceValue(func() (cs [10]*Report) {
	for i := range cs {
		opts := []sbgp.Option{sbgp.WithGeneratedTopology(800, int64(i%5+1)), sbgp.WithPairSampling(10, 12)}
		if i >= 5 {
			opts = append(opts, sbgp.WithIXPAugmentation())
		}
		cs[i] = NewReport(scenarioWorkload(40, opts...))
		if i >= 5 {
			cs[i].Plain = cs[i-5]
		}
	}
	return cs
})

// claimRun is one row of Claims evaluated on every cell: its verdicts
// (H holds, M misses, - not applicable; plain|IXP), its smallest margin,
// and the theorem failures it found.
type claimRun struct {
	got, low string
	errs     []string
}

// claimRuns evaluates every claim on every cell once, for every test that
// checks a row.
var claimRuns = sync.OnceValue(func() []claimRun {
	cs := cells()
	values := make([][10]float64, len(Claims))
	var wg sync.WaitGroup
	for half := 0; half < 10; half += 5 { // plain and IXP cells side by side
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range Claims {
				for cell := half; cell < half+5; cell++ {
					if c.Kind&IXP == 0 || half > 0 {
						values[i][cell] = c.Value(cs[cell])
					}
				}
			}
		}()
	}
	wg.Wait()
	runs := make([]claimRun, len(Claims))
	for i, c := range Claims {
		var got []byte
		low := inf
		for cell, v := range values[i] {
			if cell == 5 {
				got = append(got, '|')
			}
			if c.Kind&IXP != 0 && cell < 5 {
				got = append(got, '-')
				continue
			}
			low = min(low, c.Bound.Margin(v))
			if c.Bound.Holds(v) {
				got = append(got, 'H')
				continue
			}
			got = append(got, 'M')
			if c.Kind&Theorem != 0 {
				runs[i].errs = append(runs[i].errs, fmt.Sprintf("%s (%s) fails on seed %d, IXP %v: %s", c.ID, c.Statement, cell%5+1, cell >= 5, c.Format(v)))
			}
		}
		runs[i].got, runs[i].low = string(got), c.Format(low)
	}
	return runs
})

// claimPins are the verdicts pinned in testdata/claims.txt, by row ID.
var claimPins = sync.OnceValues(func() (map[string]string, error) {
	pins, err := os.ReadFile("testdata/claims.txt")
	want := map[string]string{}
	for _, line := range strings.Split(string(pins), "\n") {
		if f := strings.Fields(line); len(f) > 1 && !strings.HasPrefix(f[0], "#") {
			want[f[0]] = f[1]
		}
	}
	return want, err
})

// checkClaims checks the rows named by ids, every row if none: a theorem
// row must hold on every cell, and every row's verdicts must match its pin.
func checkClaims(t *testing.T, ids ...string) {
	t.Helper()
	want, err := claimPins()
	if err != nil {
		t.Fatal(err)
	}
	runs := claimRuns()
	seen := map[string]bool{}
	for i, c := range Claims {
		if len(ids) > 0 && !slices.Contains(ids, c.ID) {
			continue
		}
		seen[c.ID] = true
		r := runs[i]
		for _, e := range r.errs {
			t.Error(e)
		}
		if r.got != want[c.ID] {
			t.Errorf("%s: verdicts %s, pinned %q", c.ID, r.got, want[c.ID])
		}
		t.Logf("%-11s %-8s %s %8s  %s", c.ID, c.Ref, r.got, r.low, c.Statement)
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("%s is not a claim", id)
		}
	}
}

// TestPaperClaims evaluates every claim on topogen seeds 1–5, plain and
// IXP-augmented, at -quick scale. A theorem row must hold on every cell;
// every row's verdicts must match testdata/claims.txt, so a flip either
// way fails. -v prints each row's verdicts and smallest margin (make
// claims).
func TestPaperClaims(t *testing.T) {
	checkClaims(t)
	want, _ := claimPins()
	for id := range want {
		if !slices.ContainsFunc(Claims, func(c Claim) bool { return c.ID == id }) {
			t.Errorf("testdata/claims.txt pins %s, which is not a claim", id)
		}
	}
	for i, r := range cells() {
		if err := r.W.Err(); err != nil {
			t.Errorf("seed %d, IXP %v: %v", i%5+1, i >= 5, err)
		}
	}
}

// The tests below check, on the same cells, the rows of Claims that
// state what each of them once asserted on seed 1 alone.

func TestTierSizesMatchTable1(t *testing.T)                 { checkClaims(t, "E27.sizes", "E27.all") }
func TestBaselineMatchesPaperShape(t *testing.T)            { checkClaims(t, "E1.band", "E1.hilo") }
func TestFig3Orderings(t *testing.T)                        { checkClaims(t, "E2.doomed", "E2.prot1", "E2.imm3") }
func TestFig4Tier1DestinationsMostDoomed(t *testing.T)      { checkClaims(t, "E3.t1most") }
func TestFig6Tier1AttackersWeakest(t *testing.T)            { checkClaims(t, "E5.collapse", "E5.t1imm") }
func TestRolloutModelOrdering(t *testing.T)                 { checkClaims(t, "E7.order", "E7.simplex", "E7.mono") }
func TestEarlyAdoptersTier2BeatsTier1ForSec23(t *testing.T) { checkClaims(t, "E14.compete") }
func TestPhenomenaTheoremSides(t *testing.T)                { checkClaims(t, "E17.cd3", "E17.dg23") }
func TestIXPWorkloadTrendsHold(t *testing.T)                { checkClaims(t, "E25.peers", "E2.doomed", "E1.band") }

func TestSecureDestDeltasSorted(t *testing.T) {
	for _, m := range policy.Models {
		seq := cells()[0].Tier12Deltas()[m]
		if len(seq) == 0 {
			t.Fatalf("%v: empty sequence", m)
		}
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("%v: sequence not sorted at %d", m, i)
			}
		}
	}
}

func TestCPFateShape(t *testing.T) {
	cps, accs := cells()[0].W.Meta.CPs, cells()[0].CPFate()
	if len(cps) != len(accs) || len(cps) == 0 {
		t.Fatalf("CP fate sizes: %d vs %d", len(cps), len(accs))
	}
	for i, a := range accs {
		sum := a.Downgraded + a.WastedOnHappy + a.Protected
		if sum > a.SecureNormal+1e-9 {
			t.Errorf("CP %d: fate decomposition %v exceeds secure-normal %v", cps[i], sum, a.SecureNormal)
		}
	}
}

func TestFullEnumerationWorkload(t *testing.T) {
	w := scenarioWorkload(0, sbgp.WithGeneratedTopology(200, 9), sbgp.WithFullEnumeration())
	if nonStubs := asgraph.NonStubs(w.G); len(w.M) != len(nonStubs) {
		t.Errorf("full enumeration sampled attackers: |M|=%d, want |M′|=%d", len(w.M), len(nonStubs))
	}
	if len(w.D) != w.G.N() {
		t.Errorf("full enumeration sampled destinations: |D|=%d, want |V|=%d", len(w.D), w.G.N())
	}
	total := 0
	for tier := 0; tier < asgraph.NumTiers; tier++ {
		total += len(w.Tiers.Members[tier])
	}
	if len(w.Tiered) != total {
		t.Errorf("full enumeration truncated tier strata: %d of %d members", len(w.Tiered), total)
	}
}

// TestIncrementalWorkloadEquality: the metric experiments that declare
// their own sweep grids — the rollouts and the per-destination delta
// series — produce the numbers a SHA-256 pins in both of the scenario's
// scheduling modes.
func TestIncrementalWorkloadEquality(t *testing.T) {
	const want = "dc22f191316db156393b2281bc6fdeb5d84e22df2d1aeeb4b635cce7d7d2fb67"
	opts := []sbgp.Option{sbgp.WithGeneratedTopology(600, 1), sbgp.WithPairSampling(8, 10)}
	plain := scenarioWorkload(20, append(opts, sbgp.WithIncremental(sbgp.IncrementalOff))...)
	inc := scenarioWorkload(20, opts...)
	if plain.Incremental == inc.Incremental {
		t.Fatal("the scenario's scheduling mode did not reach the workload")
	}
	for _, w := range []*Workload{plain, inc} {
		h := sha256.New()
		for _, steps := range [][]deploy.Step{w.Tier12, deploy.Tier12Rollout(w.G, w.Tiers, true)} {
			fmt.Fprintln(h, w.Rollout(steps, w.D, policy.Standard))
		}
		fmt.Fprintln(h, w.SecureDestDeltas(w.Tier12[len(w.Tier12)-1].Deployment, policy.Standard))
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("incremental %v: rollouts and per-destination deltas hash to %s, want %s", w.Incremental, got, want)
		}
	}
}

// TestSourceTierPartitionsSumToOverall: E2 and E6 are one walk — within
// every source tier with members the three categories partition the
// tier's sources, and the overall fractions are their source-weighted
// mean, so they lie between the tiers' extremes.
func TestSourceTierPartitionsSumToOverall(t *testing.T) {
	r := cells()[0]
	all, bySrc := r.Part(), r.BySource()
	if len(bySrc) != asgraph.NumTiers {
		t.Fatalf("%d source tiers, want %d", len(bySrc), asgraph.NumTiers)
	}
	for _, m := range policy.Models {
		lo, hi := 1.0, 0.0
		for tier, pf := range bySrc {
			f := pf.Frac[m]
			if len(r.W.Tiers.Members[tier]) == 0 {
				continue
			}
			if sum := f[0] + f[1] + f[2]; sum < 1-1e-9 || sum > 1+1e-9 {
				t.Errorf("%v source %v: fractions sum to %v", m, asgraph.Tier(tier), sum)
			}
			lo, hi = min(lo, f[1]), max(hi, f[1])
		}
		if d := all.Frac[m][1]; d < lo-1e-9 || d > hi+1e-9 {
			t.Errorf("%v: overall doomed %.4f outside the source tiers' range [%.4f, %.4f]", m, d, lo, hi)
		}
	}
}

// TestWorkloadRunsUnderTheScenarioContext: sbgp.WithContext reaches every
// evaluation the experiments run — grids and pair walks alike. After a
// cancellation the methods return zero results, keep doing so, and Err
// reports the context's error.
func TestWorkloadRunsUnderTheScenarioContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w := scenarioWorkload(10, sbgp.WithGeneratedTopology(300, 1), sbgp.WithPairSampling(4, 5), sbgp.WithContext(ctx))
	if b := w.Baseline(policy.Sec3rd, policy.Standard); b.Lo <= 0 || w.Err() != nil {
		t.Fatalf("live context: baseline %+v, err %v", b, w.Err())
	}
	cancel()

	if b := w.Baseline(policy.Sec3rd, policy.Standard); b != (runner.Metric{}) {
		t.Errorf("Baseline after cancellation = %+v, want zero", b)
	}
	if !errors.Is(w.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", w.Err())
	}
	if all, bySrc := w.Partitions(policy.Standard); all.Pairs != 0 || len(bySrc) != asgraph.NumTiers {
		t.Errorf("Partitions after cancellation: %d pairs, %d source tiers", all.Pairs, len(bySrc))
	}
	if byDest := w.PartitionsByDestTier(policy.Standard); len(byDest) != asgraph.NumTiers || byDest[asgraph.TierStub].Pairs != 0 {
		t.Errorf("PartitionsByDestTier after cancellation: %+v", byDest)
	}
	if pts := w.Rollout(w.Tier12, w.D, policy.Standard); pts != nil {
		t.Errorf("Rollout after cancellation returned %d points", len(pts))
	}
	if cps, accs := w.CPFate(policy.Sec3rd, policy.Standard); len(accs) != len(cps) || accs[0].Pairs != 0 {
		t.Errorf("CPFate after cancellation: %d accountings for %d CPs", len(accs), len(cps))
	}
	if rc, _ := w.RootCause(policy.Standard); rc != [policy.NumModels]rootcause.Accounting{} {
		t.Errorf("RootCause after cancellation = %+v, want zero", rc)
	}
	if !errors.Is(w.Err(), context.Canceled) {
		t.Errorf("Err() = %v after further calls, want context.Canceled", w.Err())
	}
}
