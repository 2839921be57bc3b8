package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
)

// depSeedAttack is the one-hop hijack plus a helper origin planted only
// under a non-nil deployment: a custom attack whose seeds depend on Dep,
// so no cell under a deployment shares its roots with the baseline run.
type depSeedAttack struct{ helper asgraph.AS }

func (depSeedAttack) Name() string { return "dep-seed" }
func (a depSeedAttack) Seed(s *Seeder) {
	s.OriginateDest()
	s.AnnounceBogus(1)
	if s.Dep != nil {
		s.Originate(a.helper, 2, false, LabelDest)
	}
}

// secureOriginAttack is the one-hop hijack plus a *secure* origin at a
// non-destination: secure routes exist although the destination is
// outside S, so "d ∉ S" alone would wrongly call the cell security-free.
type secureOriginAttack struct{ helper asgraph.AS }

func (secureOriginAttack) Name() string { return "secure-origin" }
func (a secureOriginAttack) Seed(s *Seeder) {
	s.OriginateDest()
	s.AnnounceBogus(1)
	s.Originate(a.helper, 1, true, LabelDest)
}

// secFreeGraphs are the existing seeded generators' graphs the
// security-free properties are checked on: arbitrary hierarchies, an
// Internet-like topology, and a disconnected forest.
func secFreeGraphs() map[string]*asgraph.Graph {
	graphs := map[string]*asgraph.Graph{
		"topogen-150": testGraph(7),
		"forest":      forestGraph(4, 10),
	}
	for seed := int64(1); seed <= 5; seed++ {
		graphs[fmt.Sprintf("random-%d", seed)] = randomGraph(seed, 30+int(seed)*6)
	}
	return graphs
}

// stubSimplex is the "simplex at stubs" deployment: every stub signs its
// origin (Simplex), every other AS deploys fully.
func stubSimplex(g *asgraph.Graph) *Deployment {
	full, simplex := asgraph.NewSet(g.N()), asgraph.NewSet(g.N())
	for v := asgraph.AS(0); int(v) < g.N(); v++ {
		if g.IsAnyStub(v) {
			simplex.Add(v)
		} else {
			full.Add(v)
		}
	}
	return &Deployment{Full: full, Simplex: simplex}
}

// TestSecurityFreeDifferential is the collapse's soundness property on
// generated inputs: whenever Engine.SecurityFree holds for a cell, the
// cell's outcome — all five arrays and the happy bounds — equals the
// pair's baseline outcome (dep == nil) under every security model; the
// predicate never holds for an origin-secure (full or simplex)
// destination, nor for the two adversarial attacks where they deviate
// from the baseline; and for the built-in attacks it holds whenever the
// destination is outside S — which is what makes the collapse fire.
func TestSecurityFreeDifferential(t *testing.T) {
	for name, g := range secFreeGraphs() {
		n := g.N()
		rng := rand.New(rand.NewSource(int64(n)))
		all := asgraph.NewSet(n)
		for v := 0; v < n; v++ {
			all.Add(asgraph.AS(v))
		}
		for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
			var engines [policy.NumModels]*Engine
			for i, model := range policy.Models {
				engines[i] = NewEngineLP(g, model, lp)
			}
			for trial := 0; trial < 12; trial++ {
				d, m, partial := randomScenario(g, rng, 0.4)
				if trial%4 == 3 {
					m = asgraph.None // normal conditions ride the same predicate
				}
				helper := asgraph.AS(rng.Intn(n))
				for helper == d || helper == m {
					helper = asgraph.AS(rng.Intn(n))
				}
				deps := map[string]*Deployment{
					"nil": nil, "empty": {}, "full": {Full: all},
					"simplex-stub": stubSimplex(g), "partial": partial,
				}
				attacks := []Attack{
					OneHopHijack{}, NoAttack{}, PathPadding{Hops: 3}, OriginSpoof{},
					depSeedAttack{helper}, secureOriginAttack{helper},
				}
				for _, atk := range attacks {
					base := engines[0].RunAttack(d, m, nil, atk).Clone()
					blo, bhi := base.HappyBounds()
					for depName, dep := range deps {
						label := fmt.Sprintf("%s %v %s d=%d m=%d dep=%s", name, lp, atk.Name(), d, m, depName)
						free := engines[0].SecurityFree(d, m, dep, atk)
						builtin := false
						switch atk.(type) {
						case depSeedAttack:
							if free && dep != nil {
								t.Fatalf("%s: security-free although the attack seeds an extra root under a deployment", label)
							}
						case secureOriginAttack:
							if free {
								t.Fatalf("%s: security-free although the attack plants a secure origin", label)
							}
						default:
							builtin = true
						}
						if dep.OriginSecure(d) && free {
							t.Fatalf("%s: security-free although the destination signs its origin", label)
						}
						if builtin && !dep.OriginSecure(d) && !free {
							t.Fatalf("%s: not security-free although the destination is outside S", label)
						}
						for i, model := range policy.Models {
							if got := engines[i].SecurityFree(d, m, dep, atk); got != free {
								t.Fatalf("%s: the predicate depends on the model (%v says %v)", label, model, got)
							}
							if !free {
								continue
							}
							got := engines[i].RunAttack(d, m, dep, atk)
							if !outcomesEqual(got, base) {
								t.Fatalf("%s %v: a security-free cell diverges from the baseline outcome", label, model)
							}
							if lo, hi := engines[i].HappyBounds(); lo != blo || hi != bhi {
								t.Fatalf("%s %v: happy bounds (%d,%d), baseline (%d,%d)", label, model, lo, hi, blo, bhi)
							}
						}
					}
				}
			}
		}
	}
}

// TestSecurityFreeDeltaWalk drives RunDelta along a signed-delta walk
// that crosses free → non-free → free — the destination joins S (Full,
// or Simplex for the second walk), stays while others join, leaves
// again, and the walk continues through further free steps — and
// requires a fresh from-scratch engine's outcome and happy bounds at
// every step, for an engine chaining its own outcome and for one handed
// an external copy of prev. A threshold-0 engine makes the short-circuit
// observable: it falls back on every step that has stage work to do, so
// its fallback count must stand still exactly on the chained free → free
// steps.
func TestSecurityFreeDeltaWalk(t *testing.T) {
	for name, g := range secFreeGraphs() {
		n := g.N()
		rng := rand.New(rand.NewSource(int64(n) + 1))
		for _, lp := range []policy.LocalPref{policy.Standard, policy.LP2} {
			for _, model := range policy.Models {
				for _, simplexDst := range []bool{false, true} {
					d, m, _ := randomScenario(g, rng, 0)
					without := func(dep *Deployment) *Deployment {
						full, simplex := dep.Full.Clone(), dep.Simplex.Clone()
						full.Remove(d)
						simplex.Remove(d)
						return &Deployment{Full: full, Simplex: simplex}
					}
					with := func(dep *Deployment) *Deployment {
						dep = without(dep)
						if simplexDst {
							dep.Simplex.Add(d)
						} else {
							dep.Full.Add(d)
						}
						return dep
					}
					grow := func(dep *Deployment) *Deployment {
						next, _ := growDeployment(g, dep, 1+n/10, rng)
						return next
					}
					s0 := without(grow(nil))
					s1 := without(grow(s0))
					s2 := with(s1)
					s3 := with(grow(s2))
					s4 := without(s3)
					s5 := without(grow(s4))
					walk := []*Deployment{s0, s1, s2, s3, s4, s5, nil, s5}
					wantFree := []bool{true, true, false, false, true, true, true, true}

					chained := NewEngineLP(g, model, lp)
					off := NewEngineLP(g, model, lp, WithDeltaThreshold(0))
					external := NewEngineLP(g, model, lp)
					fresh := NewEngineLP(g, model, lp)
					co := chained.RunAttack(d, m, walk[0], nil)
					oo := off.RunAttack(d, m, walk[0], nil)
					prev := co.Clone()
					for step := 1; step < len(walk); step++ {
						label := fmt.Sprintf("%s %v %v simplex=%v d=%d m=%d step %d", name, lp, model, simplexDst, d, m, step)
						dep := walk[step]
						if free := fresh.SecurityFree(d, m, dep, nil); free != wantFree[step] {
							t.Fatalf("%s: SecurityFree = %v, want %v", label, free, wantFree[step])
						}
						added, removed := DeploymentDelta(walk[step-1], dep)
						want := fresh.RunAttack(d, m, dep, nil)
						wlo, whi := want.HappyBounds()
						fallbacks := off.deltaFallbacks
						co = chained.RunDelta(co, added, removed, dep, nil)
						oo = off.RunDelta(oo, added, removed, dep, nil)
						eo := external.RunDelta(prev, added, removed, dep, nil)
						for _, c := range []struct {
							what string
							e    *Engine
							got  *Outcome
						}{{"chained", chained, co}, {"threshold-0", off, oo}, {"external prev", external, eo}} {
							if !outcomesEqual(c.got, want) {
								t.Fatalf("%s: %s RunDelta diverges from a fresh engine", label, c.what)
							}
							if lo, hi := c.e.HappyBounds(); lo != wlo || hi != whi {
								t.Fatalf("%s: %s HappyBounds (%d,%d), fresh (%d,%d)", label, c.what, lo, hi, wlo, whi)
							}
						}
						noop := wantFree[step-1] && wantFree[step]
						if fell := off.deltaFallbacks > fallbacks; fell == noop {
							t.Fatalf("%s: threshold-0 engine fell back = %v on a step with both ends free = %v", label, fell, noop)
						}
						prev = eo.Clone()
					}
				}
			}
		}
	}
}
