package rootcause

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// damageFixture rebuilds the Figure 14 collateral-damage topology (see
// internal/core's fixtures): insecure s loses its short legitimate route
// when its provider p switches to a longer secure route under security
// 2nd.
func damageFixture() (*asgraph.Graph, asgraph.AS, asgraph.AS, *core.Deployment) {
	b := asgraph.NewBuilder(10)
	d, q1, p, s, c1, c2, q2, w, w2, m := asgraph.AS(0), asgraph.AS(1), asgraph.AS(2), asgraph.AS(3), asgraph.AS(4), asgraph.AS(5), asgraph.AS(6), asgraph.AS(7), asgraph.AS(8), asgraph.AS(9)
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
	dep := &core.Deployment{Full: asgraph.SetOf(10, d, c1, c2, q2, p)}
	return g, d, m, dep
}

// walk runs the accounting of models destination-major: one row per
// destination.
func walk(ctx context.Context, g *asgraph.Graph, models []policy.Model, dep *core.Deployment, M, D []asgraph.AS, workers int) ([]int64, error) {
	return runner.WalkPairs(ctx, D, M, workers, Width(len(models)), Kernel(g, models, policy.Standard, dep))
}

// evaluate is Evaluate under a background context.
func evaluate(t *testing.T, g *asgraph.Graph, dep *core.Deployment, M, D []asgraph.AS, workers int) [policy.NumModels]Accounting {
	t.Helper()
	accs, err := Evaluate(context.Background(), g, policy.Standard, dep, M, D, workers)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

func TestAccountingDetectsCollateralDamage(t *testing.T) {
	g, d, m, dep := damageFixture()
	accs := evaluate(t, g, dep, []asgraph.AS{m}, []asgraph.AS{d}, 1)

	if a2 := accs[policy.Sec2nd]; a2.CollateralDamage <= 0 {
		t.Errorf("sec2nd collateral damage = %v, want > 0", a2.CollateralDamage)
	}
	// Theorem 6.1: never under security 3rd.
	if a3 := accs[policy.Sec3rd]; a3.CollateralDamage != 0 {
		t.Errorf("sec3rd collateral damage = %v, want 0", a3.CollateralDamage)
	}
}

func TestAccountingDetectsDowngrades(t *testing.T) {
	// The Figure 2 downgrade fixture.
	b := asgraph.NewBuilder(6)
	d, webhost, cogent, pccw, stub, m := asgraph.AS(0), asgraph.AS(1), asgraph.AS(2), asgraph.AS(3), asgraph.AS(4), asgraph.AS(5)
	b.AddProviderCustomer(d, webhost)
	b.AddProviderCustomer(d, stub)
	b.AddPeer(cogent, d)
	b.AddPeer(cogent, webhost)
	b.AddProviderCustomer(cogent, pccw)
	b.AddProviderCustomer(pccw, m)
	g := b.MustBuild()
	dep := &core.Deployment{Full: asgraph.SetOf(6, d, webhost, stub)}
	accs := evaluate(t, g, dep, []asgraph.AS{m}, []asgraph.AS{d}, 1)

	for _, model := range []policy.Model{policy.Sec2nd, policy.Sec3rd} {
		if a := accs[model]; a.Downgraded <= 0 {
			t.Errorf("%v: downgraded = %v, want > 0", model, a.Downgraded)
		}
	}
	// Theorem 3.1: never under security 1st.
	if a1 := accs[policy.Sec1st]; a1.Downgraded != 0 {
		t.Errorf("sec1st downgraded = %v, want 0", a1.Downgraded)
	}
}

// t12Fixture is a generated topology with the Tier 1s, Tier 2s and their
// stub customers secure, and a sampled pair set.
func t12Fixture(n int, seed int64, maxM, maxD int) (g *asgraph.Graph, dep *core.Deployment, M, D []asgraph.AS) {
	g, meta := topogen.MustGenerate(topogen.Params{N: n, Seed: seed})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	full := asgraph.NewSet(g.N())
	for _, v := range tiers.Members[asgraph.TierT1] {
		full.Add(v)
	}
	for _, v := range tiers.Members[asgraph.TierT2] {
		full.Add(v)
	}
	for _, v := range asgraph.StubCustomersOf(g, full) {
		full.Add(v)
	}
	M, D = runner.SamplePairs(asgraph.NonStubs(g), allASes(g), maxM, maxD)
	return g, &core.Deployment{Full: full}, M, D
}

func TestSecureRouteFateDecomposition(t *testing.T) {
	// SecureNormal must decompose exactly into downgraded + wasted +
	// protected, on a realistic topology with a realistic deployment —
	// as integer counts, in every destination's row.
	g, dep, M, D := t12Fixture(600, 17, 8, 10)
	rows, err := walk(context.Background(), g, policy.Models[:], dep, M, D, 4)
	if err != nil {
		t.Fatal(err)
	}
	width := Width(policy.NumModels)
	for di := range D {
		for k, model := range policy.Models {
			c := rows[di*width+k*numCounts:]
			if sum := c[cDowngraded] + c[cWasted] + c[cProtected]; sum != c[cSecureNormal] {
				t.Errorf("dest %d %v: secure-route fate %d does not decompose SecureNormal %d", D[di], model, sum, c[cSecureNormal])
			}
		}
	}
	for model, a := range Accounts(g.N(), runner.SumRows(rows, width)) {
		if a.SecureNormal <= 0 {
			t.Errorf("%v: no secure routes at all under a 30%%+ deployment", policy.Model(model))
		}
	}
}

// TestKernelMatchesExplicitRuns: on generated graphs the walk's rows
// equal counts taken from explicitly run outcomes on a fresh engine per
// model — core.CountSecure / core.CountDowngraded for the secure-route
// columns, HappyBounds for the happiness columns — which also checks
// that one S = ∅ run serves every model.
func TestKernelMatchesExplicitRuns(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g, dep, M, D := t12Fixture(200, seed, 5, 8)
		rows, err := walk(context.Background(), g, policy.Models[:], dep, M, D, 3)
		if err != nil {
			t.Fatal(err)
		}
		width := Width(policy.NumModels)
		for k, model := range policy.Models {
			e := core.NewEngineLP(g, model, policy.Standard)
			for di, d := range D {
				normal := e.RunNormal(d, dep).Clone()
				var secure, downgraded, happyS, happyBase, pairs int64
				for _, m := range M {
					if m == d {
						continue
					}
					lo, _ := e.Run(d, m, nil).HappyBounds()
					happyBase += int64(lo)
					attack := e.Run(d, m, dep)
					lo, _ = attack.HappyBounds()
					happyS += int64(lo)
					downgraded += int64(core.CountDowngraded(normal, attack))
					// Secure under normal conditions, among this pair's sources.
					secure += int64(core.CountSecure(normal))
					if normal.Secure[m] {
						secure--
					}
					pairs++
				}
				c := rows[di*width+k*numCounts:]
				got := [...]int64{c[cSecureNormal], c[cDowngraded], c[cHappyS], c[cHappyBase], rows[(di+1)*width-1]}
				want := [...]int64{secure, downgraded, happyS, happyBase, pairs}
				if got != want {
					t.Errorf("seed %d dest %d %v: {secureNormal, downgraded, happyS, happyBase, pairs} = %v, explicit runs give %v",
						seed, d, model, got, want)
				}
			}
		}
	}
}

// TestWalkRowsIdenticalAcrossWorkers: positional integer rows do not
// depend on the worker count, and a single-model walk's columns are the
// all-models walk's columns for that model.
func TestWalkRowsIdenticalAcrossWorkers(t *testing.T) {
	g, dep, M, D := t12Fixture(300, 5, 6, 9)
	rowsOf := func(models []policy.Model, workers int) []int64 {
		rows, err := walk(context.Background(), g, models, dep, M, D, workers)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	want := rowsOf(policy.Models[:], 1)
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		if !slices.Equal(rowsOf(policy.Models[:], workers), want) {
			t.Errorf("workers=%d: rows differ from the serial walk", workers)
		}
	}
	all, one := Width(policy.NumModels), Width(1)
	for k, model := range policy.Models {
		single := rowsOf([]policy.Model{model}, 2)
		for di := range D {
			if !slices.Equal(single[di*one:][:numCounts], want[di*all+k*numCounts:][:numCounts]) {
				t.Errorf("%v dest %d: single-model row differs from the all-models row", model, D[di])
			}
		}
	}
}

// TestEvaluateCancelled: a cancelled context surfaces as the walk's error,
// with no rows and no accounting.
func TestEvaluateCancelled(t *testing.T) {
	g, dep, M, D := t12Fixture(200, 1, 4, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rows, err := walk(ctx, g, policy.Models[:], dep, M, D, 2); !errors.Is(err, context.Canceled) || rows != nil {
		t.Errorf("Walk under a cancelled context: %d counts, err %v", len(rows), err)
	}
	if _, err := Evaluate(ctx, g, policy.Standard, dep, M, D, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate under a cancelled context: err %v", err)
	}
}

// TestWalkPerPairZeroAllocs: on a warm kernel the walk allocates nothing
// per pair or per destination — the same count at two pair-set sizes.
func TestWalkPerPairZeroAllocs(t *testing.T) {
	g, dep, M, D := t12Fixture(200, 6, 8, 24)
	width := Width(policy.NumModels)
	k := Kernel(g, policy.Models[:], policy.Standard, dep)()
	allocs := func(M, D []asgraph.AS) float64 {
		return testing.AllocsPerRun(3, func() {
			_, err := runner.WalkPairs(context.Background(), D, M, 1, width, func() runner.PairKernel { return k })
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(M, D) // grow the engine's scratch to its high-water mark
	small, large := allocs(M[:2], D[:3]), allocs(M, D)
	if small != large || large > 3 {
		t.Errorf("walk allocations: %v for 2×3 pairs, %v for %d×%d; want equal and at most 3 (rows, dispatch closure, kernel constructor)",
			small, large, len(M), len(D))
	}
}

func TestPhenomenaMatrixImpossibilities(t *testing.T) {
	// The Table 3 impossibility entries hold on arbitrary workloads:
	// no downgrades under security 1st (Theorem 3.1), no collateral
	// damage under security 3rd (Theorem 6.1).
	//
	// Theorem 3.1 carves out sources whose normal-conditions secure
	// route traverses the attacker, which requires a *secure* attacker;
	// with insecure attackers the sec-1st downgrade count must be
	// exactly zero, so the attacker sample below excludes the secured
	// Tier 2s.
	g, meta := topogen.MustGenerate(topogen.Params{N: 600, Seed: 19})
	tiers := asgraph.Classify(g, meta.CPs, nil)
	full := asgraph.NewSet(g.N())
	for _, v := range tiers.Members[asgraph.TierT2] {
		full.Add(v)
	}
	dep := &core.Deployment{Full: full}
	var insecureNonStubs []asgraph.AS
	for _, v := range asgraph.NonStubs(g) {
		if !full.Has(v) {
			insecureNonStubs = append(insecureNonStubs, v)
		}
	}
	M, D := runner.SamplePairs(insecureNonStubs, allASes(g), 8, 8)
	accs := evaluate(t, g, dep, M, D, 4)
	if accs[policy.Sec1st].Downgraded > 0 {
		t.Error("downgrades observed under security 1st with insecure attackers")
	}
	if accs[policy.Sec3rd].CollateralDamage > 0 {
		t.Error("collateral damage observed under security 3rd")
	}

	// With attackers drawn from the secured ASes themselves, sec-1st
	// downgrades are possible (the theorem's carve-out) but must stay
	// far below the sec-3rd level.
	Msec, _ := runner.SamplePairs(tiers.Members[asgraph.TierT2], nil, 8, 0)
	accs = evaluate(t, g, dep, Msec, D, 4)
	a1, a3 := accs[policy.Sec1st], accs[policy.Sec3rd]
	if a3.Downgraded > 0 && a1.Downgraded > a3.Downgraded {
		t.Errorf("sec1st downgrades (%v) exceed sec3rd (%v)", a1.Downgraded, a3.Downgraded)
	}
}

func allASes(g *asgraph.Graph) []asgraph.AS {
	out := make([]asgraph.AS, g.N())
	for i := range out {
		out[i] = asgraph.AS(i)
	}
	return out
}
