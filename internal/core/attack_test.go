package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// attackTestDep builds a deterministic mixed full/simplex deployment.
func attackTestDep(g *asgraph.Graph, seed int64) *Deployment {
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	full := asgraph.NewSet(n)
	simplex := asgraph.NewSet(n)
	for v := 0; v < n; v++ {
		switch rng.Intn(3) {
		case 0:
			full.Add(asgraph.AS(v))
		case 1:
			if g.IsAnyStub(asgraph.AS(v)) {
				simplex.Add(asgraph.AS(v))
			}
		}
	}
	return &Deployment{Full: full, Simplex: simplex}
}

// TestRunAttackDefaultMatchesRun: Run, RunAttack(nil), and
// RunAttack(OneHopHijack) are the same computation — byte-identical
// outcomes over a long randomized sequence, for every model and both
// local-preference variants. This is the strategy-interface half of the
// pre-refactor equivalence guarantee (the sweep golden test pins the
// serialized aggregates).
func TestRunAttackDefaultMatchesRun(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 21})
	n := g.N()
	deps := []*Deployment{nil, attackTestDep(g, 1), attackTestDep(g, 2)}
	for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
		for _, model := range policy.Models {
			rng := rand.New(rand.NewSource(int64(model) + 10*int64(lp.K)))
			ref := NewEngineLP(g, model, lp)
			viaNil := NewEngineLP(g, model, lp)
			viaStrategy := NewEngineLP(g, model, lp)
			for run := 0; run < 15; run++ {
				d := asgraph.AS(rng.Intn(n))
				m := asgraph.AS(rng.Intn(n))
				if m == d {
					m = asgraph.None
				}
				dep := deps[rng.Intn(len(deps))]
				want := ref.Run(d, m, dep)
				if got := viaNil.RunAttack(d, m, dep, nil); !outcomesEqual(got, want) {
					t.Fatalf("%v %v run %d: RunAttack(nil) diverges from Run", model, lp, run)
				}
				if got := viaStrategy.RunAttack(d, m, dep, OneHopHijack{}); !outcomesEqual(got, want) {
					t.Fatalf("%v %v run %d: RunAttack(OneHopHijack) diverges from Run", model, lp, run)
				}
			}
		}
	}
}

// TestAttackStrategiesEpochResetEquivalence extends the long-lived vs
// fresh-engine equivalence (TestEpochResetMatchesFullClear) to every
// built-in strategy (including a randomized padding depth), so no
// strategy can leak state through the between-run rollback.
func TestAttackStrategiesEpochResetEquivalence(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 22})
	n := g.N()
	attacks := []Attack{OneHopHijack{}, NoAttack{}, OriginSpoof{}, PathPadding{Hops: 2}, PathPadding{Hops: 5}}
	deps := []*Deployment{nil, attackTestDep(g, 3)}
	for _, model := range policy.Models {
		rng := rand.New(rand.NewSource(int64(model)))
		longLived := NewEngine(g, model)
		for run := 0; run < 40; run++ {
			d := asgraph.AS(rng.Intn(n))
			m := asgraph.AS(rng.Intn(n))
			if m == d {
				m = asgraph.None
			}
			atk := attacks[rng.Intn(len(attacks))]
			dep := deps[rng.Intn(len(deps))]
			got := longLived.RunAttack(d, m, dep, atk)
			want := NewEngine(g, model).RunAttack(d, m, dep, atk)
			if !outcomesEqual(got, want) {
				t.Fatalf("%v run %d attack %s (d=%d m=%d): long-lived engine diverges from a fresh engine",
					model, run, atk.Name(), d, m)
			}
		}
	}
}

// TestNoAttackProperties: with no attack seeded, no AS can ever be
// labeled unhappy, the bounds coincide, and the routing state matches a
// normal-conditions run field for field — the designated "attacker"
// participates as an ordinary AS.
func TestNoAttackProperties(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 23})
	n := g.N()
	dep := attackTestDep(g, 4)
	for _, model := range policy.Models {
		rng := rand.New(rand.NewSource(int64(model) + 7))
		e := NewEngine(g, model)
		normalE := NewEngine(g, model)
		for run := 0; run < 10; run++ {
			d := asgraph.AS(rng.Intn(n))
			m := asgraph.AS(rng.Intn(n))
			if m == d {
				m = asgraph.None
			}
			got := e.RunAttack(d, m, dep, NoAttack{})
			for v := 0; v < n; v++ {
				if got.Label[v] == LabelAttacker || got.Label[v] == LabelAmbig {
					t.Fatalf("%v (d=%d m=%d): AS%d labeled %v under NoAttack", model, d, m, v, got.Label[v])
				}
			}
			normal := normalE.RunNormal(d, dep)
			for v := 0; v < n; v++ {
				if got.Class[v] != normal.Class[v] || got.Len[v] != normal.Len[v] ||
					got.Secure[v] != normal.Secure[v] || got.Label[v] != normal.Label[v] ||
					got.Next[v] != normal.Next[v] {
					t.Fatalf("%v (d=%d m=%d): NoAttack routing state diverges from normal conditions at AS%d",
						model, d, m, v)
				}
			}
		}
	}
}

// TestOriginSpoofStoppedByRPKI: the spoofed origination is filtered by
// the universally-deployed RPKI of the baseline, so happiness equals
// normal conditions exactly — for every deployment, including S = ∅ —
// and nobody routes to the attacker.
func TestOriginSpoofStoppedByRPKI(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 24})
	n := g.N()
	for _, dep := range []*Deployment{nil, attackTestDep(g, 5)} {
		for _, model := range policy.Models {
			rng := rand.New(rand.NewSource(int64(model) + 11))
			e := NewEngine(g, model)
			normalE := NewEngine(g, model)
			for run := 0; run < 8; run++ {
				d := asgraph.AS(rng.Intn(n))
				m := asgraph.AS(rng.Intn(n))
				if m == d {
					m = asgraph.None
				}
				spoof := e.RunAttack(d, m, dep, OriginSpoof{})
				for v := 0; v < n; v++ {
					if spoof.Label[v] == LabelAttacker {
						t.Fatalf("%v (d=%d m=%d): AS%d routes to an RPKI-filtered spoofer", model, d, m, v)
					}
				}
				normal := normalE.RunNormal(d, dep)
				sLo, sHi := spoof.HappyBounds()
				nLo, nHi := normal.HappyBounds()
				// The spoof run excludes m from the sources; account for
				// m's own (always happy) contribution in the normal run.
				if m != asgraph.None && normal.Label[m] == LabelDest {
					nLo--
					nHi--
				}
				if sLo != nLo || sHi != nHi {
					t.Fatalf("%v (d=%d m=%d): origin-spoof happiness [%d,%d] != baseline [%d,%d]",
						model, d, m, sLo, sHi, nLo, nHi)
				}
			}
		}
	}
}

// TestPathPaddingProperties: padding to one hop is the default attack
// exactly; deeper padding plants the claimed length at the attacker and
// still seeds both roots.
func TestPathPaddingProperties(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 25})
	n := g.N()
	dep := attackTestDep(g, 6)
	for _, model := range policy.Models {
		rng := rand.New(rand.NewSource(int64(model) + 13))
		pad := NewEngine(g, model)
		ref := NewEngine(g, model)
		for run := 0; run < 10; run++ {
			d := asgraph.AS(rng.Intn(n))
			m := asgraph.AS((int(d) + 1 + rng.Intn(n-1)) % n)
			got := pad.RunAttack(d, m, dep, PathPadding{Hops: 1})
			want := ref.Run(d, m, dep)
			if !outcomesEqual(got, want) {
				t.Fatalf("%v (d=%d m=%d): pad-1 diverges from the one-hop hijack", model, d, m)
			}
			hops := 2 + rng.Intn(4)
			padded := pad.RunAttack(d, m, dep, PathPadding{Hops: hops})
			if padded.Len[m] != int32(hops) || padded.Label[m] != LabelAttacker || padded.Secure[m] {
				t.Fatalf("%v (d=%d m=%d): pad-%d attacker root = (len %d, %v, secure=%v)",
					model, d, m, hops, padded.Len[m], padded.Label[m], padded.Secure[m])
			}
			if padded.Label[d] != LabelDest || padded.Len[d] != 0 {
				t.Fatalf("%v (d=%d m=%d): destination root corrupted under pad-%d", model, d, m, hops)
			}
		}
	}
}

// TestParseAttack covers the flag syntax both ways.
func TestParseAttack(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", "one-hop"}, {"one-hop", "one-hop"}, {"hijack", "one-hop"}, {"default", "one-hop"},
		{"none", "none"}, {"no-attack", "none"},
		{"origin-spoof", "origin-spoof"}, {"spoof", "origin-spoof"},
		{"pad-1", "pad-1"}, {"pad-7", "pad-7"},
	} {
		atk, err := ParseAttack(tc.in)
		if err != nil {
			t.Errorf("ParseAttack(%q): %v", tc.in, err)
			continue
		}
		if atk.Name() != tc.want {
			t.Errorf("ParseAttack(%q).Name() = %q, want %q", tc.in, atk.Name(), tc.want)
		}
	}
	for _, bad := range []string{"pad-0", "pad-x", "pad-", "pad-2147483648", "smurf"} {
		if _, err := ParseAttack(bad); err == nil {
			t.Errorf("ParseAttack(%q) succeeded, want error", bad)
		}
	}
	// Programmatic padding depths beyond the bound clamp instead of
	// overflowing the int32 length arithmetic.
	huge := PathPadding{Hops: 1 << 40}
	if huge.Name() != fmt.Sprintf("pad-%d", MaxPadHops) {
		t.Errorf("oversized padding names itself %q", huge.Name())
	}
	// Every built-in round-trips through its own name.
	for _, atk := range Attacks() {
		back, err := ParseAttack(atk.Name())
		if err != nil || back.Name() != atk.Name() {
			t.Errorf("attack %q does not round-trip: %v", atk.Name(), err)
		}
	}
}

// TestParseAttackErrorDiagnostics pins the parser's error contract: a
// rejected value yields an error naming the offending token and every
// valid choice (aliases included), so a daemon client or CLI user can
// fix a typo'd spec from the message alone.
func TestParseAttackErrorDiagnostics(t *testing.T) {
	for _, tc := range []struct {
		in       string
		mentions []string
	}{
		{"smurf", []string{`"smurf"`, `"one-hop"`, `"hijack"`, `"none"`, `"no-attack"`, `"origin-spoof"`, `"spoof"`, `"pad-K"`}},
		{"pad-0", []string{`"pad-0"`, "1 ≤ K", `"one-hop"`}},
		{"pad-x", []string{`"pad-x"`, "integer", `"pad-K"`}},
		{"pad-", []string{`"pad-"`, "integer"}},
		{"pad-9999999999", []string{`"pad-9999999999"`, "1 ≤ K"}},
		{"ONE-HOP", []string{`"ONE-HOP"`, `"one-hop"`}},
	} {
		_, err := ParseAttack(tc.in)
		if err == nil {
			t.Errorf("ParseAttack(%q) succeeded, want error", tc.in)
			continue
		}
		for _, want := range tc.mentions {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseAttack(%q) error %q does not mention %s", tc.in, err, want)
			}
		}
	}
}

// TestOriginateOverflowClamp is the overflow regression: the pad-K
// clamp lives in core and covers every seeding path, so neither an
// oversized PathPadding nor a custom Attack originating near-MaxInt32
// lengths can overflow the engine's int32 length arithmetic.
func TestOriginateOverflowClamp(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 27})
	for _, model := range policy.Models {
		e := NewEngine(g, model)
		ref := NewEngine(g, model)
		// Padding beyond the bound behaves exactly like MaxPadHops.
		got := e.RunAttack(3, 9, nil, PathPadding{Hops: math.MaxInt})
		want := ref.RunAttack(3, 9, nil, PathPadding{Hops: MaxPadHops})
		if !outcomesEqual(got, want) {
			t.Fatalf("%v: PathPadding{MaxInt} diverges from PathPadding{MaxPadHops}", model)
		}
		// A custom strategy passing a raw near-overflow length through
		// Originate is clamped at the root, so no AS anywhere in the
		// graph ever computes a negative (wrapped) route length.
		huge := e.RunAttack(3, 9, nil, attackFunc(func(s *Seeder) {
			s.OriginateDest()
			s.Originate(9, math.MaxInt32, false, LabelAttacker)
		}))
		if huge.Len[9] != MaxPadHops {
			t.Fatalf("%v: raw MaxInt32 origination fixed at length %d, want the %d clamp", model, huge.Len[9], MaxPadHops)
		}
		for v := range huge.Len {
			if huge.Len[v] < 0 {
				t.Fatalf("%v: AS%d ended with negative route length %d (int32 overflow)", model, v, huge.Len[v])
			}
		}
		// Negative lengths clamp to zero rather than corrupting the
		// bucket queue.
		neg := e.RunAttack(3, 9, nil, attackFunc(func(s *Seeder) {
			s.OriginateDest()
			s.Originate(9, -5, false, LabelAttacker)
		}))
		if neg.Len[9] != 0 {
			t.Fatalf("%v: negative origination fixed at length %d, want 0", model, neg.Len[9])
		}
	}
}

// TestSeederMisuse: seeding the same AS twice and forgetting the
// destination both panic rather than corrupting the run.
func TestSeederMisuse(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 100, Seed: 26})
	e := NewEngine(g, policy.Sec3rd)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("double seed", func() {
		e.RunAttack(0, 1, nil, attackFunc(func(s *Seeder) {
			s.OriginateDest()
			s.OriginateDest()
		}))
	})
	mustPanic("missing destination", func() {
		e.RunAttack(0, 1, nil, attackFunc(func(s *Seeder) {}))
	})
	// The engine survives a recovered panic: the next run is clean.
	if o := e.Run(0, 1, nil); o.Label[0] != LabelDest {
		t.Error("engine corrupted after recovered seeding panic")
	}
}

// attackFunc adapts a function to the Attack interface for tests.
type attackFunc func(*Seeder)

func (attackFunc) Name() string     { return "test" }
func (f attackFunc) Seed(s *Seeder) { f(s) }
