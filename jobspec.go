package sbgp

// JobSpec is the unified, versioned description of one sweep-grid job —
// the one spelling of a job, consumed by the resident daemon (cmd/sbgpd,
// internal/service) and run one-shot by bgpsim -job. Everything that
// shapes a job's result lives here: the topology source, the security
// models and local-preference variant, the deployment axis, the threat
// model, the attacker/destination pair policy, and the
// shard/incremental/checkpoint execution options. The same spec
// therefore produces byte-identical result JSON whether it is submitted
// to the daemon or run one-shot; cmd/experiments fills in its headline
// job from the report flags. It is also the Scenario's own
// configuration: every wire-carried With* option writes its JobSpec
// field, so there is no second copy to convert to or from.
//
// The wire format is strict JSON (unknown fields rejected) with an
// explicit version so a daemon and its clients can evolve
// independently: version 0 means "current" on input, and every spec a
// build emits carries JobSpecVersion. Canonical() resolves defaults and
// aliases into one normal form, so two specs describe the same job
// exactly when their canonical forms are equal — the property the
// round-trip tests pin.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sbgp/internal/asgraph"
	"sbgp/internal/policy"
	"sbgp/internal/sweep"
	"sbgp/internal/topogen"
)

// JobSpecVersion is the job wire-format version this build writes.
// Input specs may carry 0 (meaning "current") or this exact value.
const JobSpecVersion = 1

// Default pair-sampling caps when a spec does not enumerate fully and
// leaves the caps zero — the experiment scale of the CLIs' defaults.
const (
	DefaultMaxM = 24
	DefaultMaxD = 32
)

// JobSpec declares one sweep-grid job. See the package comment above
// and DESIGN.md ("JobSpec versioning") for the format contract.
type JobSpec struct {
	// Version is JobSpecVersion, or 0 for "current".
	Version int `json:"version"`
	// Name is an optional human label echoed by the daemon's status
	// endpoints; it does not affect the result.
	Name string `json:"name,omitempty"`

	// Topology names the job's topology source.
	Topology TopologySpec `json:"topology"`

	// Models lists the security-model axis as 1-based placements
	// (1 = security 1st, 2 = security 2nd, 3 = security 3rd), in axis
	// order. Empty means all three.
	Models []int `json:"models,omitempty"`
	// LPK selects the LPk local-preference variant; 0 is the standard
	// LP model.
	LPK int `json:"lpk,omitempty"`

	// Deployments is the deployment axis after the implicit baseline.
	Deployments []JobDeployment `json:"deployments,omitempty"`

	// Attack names the threat-model strategy, as accepted by
	// ParseAttack; empty means the paper's one-hop hijack.
	Attack string `json:"attack,omitempty"`

	// Pairs selects the attacker/destination pair policy.
	Pairs PairSpec `json:"pairs"`

	// Incremental is the delta-scheduling mode, "auto" or "off"; empty
	// means "auto", and older specs' "on" and boolean spellings are
	// accepted.
	Incremental string `json:"incremental,omitempty"`

	// ShardSize is the cells-per-shard of the sharded evaluation;
	// 0 means DefaultShardSize.
	ShardSize int `json:"shard_size,omitempty"`
	// Checkpoint names a JSON-lines checkpoint file recording every
	// completed shard. The daemon ignores it and manages its own
	// per-job checkpoint under the data directory.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Resume skips the shards already recorded in Checkpoint.
	Resume bool `json:"resume,omitempty"`

	// Workers is the evaluation worker-pool size; 0 means GOMAXPROCS.
	// Results never depend on it.
	Workers int `json:"workers,omitempty"`
}

// TopologySpec names a job's topology source: a generated synthetic
// Internet (N, Seed) or a graph file in the asgraph text format —
// GraphFile wins when set, and setting both N and GraphFile is a
// validation error.
type TopologySpec struct {
	// N is the generated topology size; 0 means 4000 (resolved by
	// Canonical). Unused with GraphFile.
	N int `json:"n,omitempty"`
	// Seed selects the generator stream. It is always serialized (no
	// omitempty), so seed 0 is an honest, explicit stream.
	Seed int64 `json:"seed"`
	// GraphFile loads the topology from a file instead of generating.
	GraphFile string `json:"graph_file,omitempty"`
	// IXP adds the Appendix J IXP peering augmentation (generated
	// topologies only — a loaded graph has no IXP memberships).
	IXP bool `json:"ixp,omitempty"`
}

// JobDeployment is one entry of the deployment axis: a standard named
// scenario (Named, one of DeploymentNames minus "none") or a
// declarative spec (Spec), under an optional display name that defaults
// to Named. Exactly one of Named and Spec must be set.
type JobDeployment struct {
	Name  string          `json:"name,omitempty"`
	Named string          `json:"named,omitempty"`
	Spec  *DeploymentSpec `json:"spec,omitempty"`
}

// PairSpec selects the job's attacker/destination pairs: the paper's
// full enumeration (every non-stub attacker × every destination), or a
// deterministic sample capped at MaxM × MaxD.
type PairSpec struct {
	// Full enumerates every (non-stub attacker, destination) pair;
	// MaxM and MaxD must then be zero.
	Full bool `json:"full,omitempty"`
	// MaxM and MaxD cap the sampled attacker and destination sets;
	// 0 means DefaultMaxM / DefaultMaxD.
	MaxM int `json:"max_m,omitempty"`
	MaxD int `json:"max_d,omitempty"`
}

// modelFromNumber resolves a 1-based model placement.
func modelFromNumber(n int) (Model, error) {
	switch n {
	case 1:
		return Sec1st, nil
	case 2:
		return Sec2nd, nil
	case 3:
		return Sec3rd, nil
	}
	return 0, fmt.Errorf("sbgp: security model %d out of range (want 1, 2, or 3)", n)
}

// validNamedDeployment reports whether name is a Named value a spec may
// carry: the WithNamedDeployment scenarios minus "none" (which adds
// nothing).
func validNamedDeployment(name string) bool {
	for _, n := range DeploymentNames() {
		if n != "none" && n == name {
			return true
		}
	}
	return false
}

// Validate checks the spec's internal consistency — version, axis
// values, token fields (attack, incremental), pair policy, and
// execution options. It validates the raw spec; Canonical() resolves
// defaults. Errors name the offending field and the valid choices.
func (s *JobSpec) Validate() error {
	if s.Version != 0 && s.Version != JobSpecVersion {
		return fmt.Errorf("sbgp: unsupported job spec version %d (this build speaks version %d; 0 means current)",
			s.Version, JobSpecVersion)
	}
	t := s.Topology
	if t.GraphFile != "" && t.N != 0 {
		return fmt.Errorf("sbgp: job topology sets both graph_file %q and generated size n=%d (pick one source)",
			t.GraphFile, t.N)
	}
	if t.N < 0 {
		return fmt.Errorf("sbgp: job topology size n=%d is negative", t.N)
	}
	// The same bound ReadFrom puts on graph files: past it the generator's
	// first allocation is an out-of-memory no caller can recover from.
	if t.N > asgraph.MaxReadASes {
		return fmt.Errorf("sbgp: job topology size n=%d exceeds the %d-AS limit", t.N, asgraph.MaxReadASes)
	}
	if t.GraphFile != "" && t.IXP {
		return fmt.Errorf("sbgp: ixp augmentation needs a generated topology (graph files carry no IXP memberships)")
	}
	seenModel := map[int]bool{}
	for _, m := range s.Models {
		if _, err := modelFromNumber(m); err != nil {
			return err
		}
		if seenModel[m] {
			return fmt.Errorf("sbgp: duplicate security model %d on the model axis", m)
		}
		seenModel[m] = true
	}
	if err := checkLimits(s.LPK, s.Workers); err != nil {
		return err
	}
	seen := map[string]bool{"baseline": true}
	for i, d := range s.Deployments {
		name := d.Name
		if name == "" {
			name = d.Named
		}
		if name == "" {
			return fmt.Errorf("sbgp: deployment %d has no name (set name, or named which doubles as one)", i)
		}
		if seen[name] {
			return fmt.Errorf("sbgp: duplicate deployment name %q", name)
		}
		seen[name] = true
		switch {
		case d.Named != "" && d.Spec != nil:
			return fmt.Errorf("sbgp: deployment %q sets both named and spec (pick one)", name)
		case d.Named != "":
			if !validNamedDeployment(d.Named) {
				return fmt.Errorf("sbgp: unknown named deployment %q (want t1t2, t1t2cp, t2, or nonstubs)", d.Named)
			}
		case d.Spec == nil:
			return fmt.Errorf("sbgp: deployment %q is empty (set named or spec)", name)
		}
	}
	if _, err := ParseAttack(s.Attack); err != nil {
		return err
	}
	if _, err := sweep.ParseIncrementalMode(s.Incremental); err != nil {
		return err
	}
	if s.Pairs.MaxM < 0 || s.Pairs.MaxD < 0 {
		return fmt.Errorf("sbgp: negative pair caps (max_m=%d max_d=%d)", s.Pairs.MaxM, s.Pairs.MaxD)
	}
	if s.Pairs.Full && (s.Pairs.MaxM != 0 || s.Pairs.MaxD != 0) {
		return fmt.Errorf("sbgp: pairs.full enumerates every pair and excludes the max_m/max_d sampling caps")
	}
	if s.ShardSize < 0 {
		return fmt.Errorf("sbgp: shard_size=%d is negative", s.ShardSize)
	}
	if s.Resume && s.Checkpoint == "" {
		return fmt.Errorf("sbgp: resume needs a checkpoint file")
	}
	return nil
}

// maxWorkers bounds the evaluation worker count: every worker holds an
// engine (263 KB at 4000 ASes) and strips shrink to one cell, so an
// unbounded count is an engine per cell — which a pooled daemon keeps.
const maxWorkers = 1024

// checkLimits bounds the LPk depth and the worker count: Validate's rule
// for specs, Simulate's for scenarios built from options.
func checkLimits(lpk, workers int) error {
	if lpk < 0 || lpk > policy.MaxLPK {
		return fmt.Errorf("sbgp: lpk=%d is outside [0, %d]", lpk, policy.MaxLPK)
	}
	if workers < 0 || workers > maxWorkers {
		return fmt.Errorf("sbgp: workers=%d is outside [0, %d]", workers, maxWorkers)
	}
	return nil
}

// Clone returns a deep copy of the spec.
func (s *JobSpec) Clone() *JobSpec {
	c := *s
	c.Models = append([]int(nil), s.Models...)
	if s.Models == nil {
		c.Models = nil
	}
	if s.Deployments != nil {
		c.Deployments = make([]JobDeployment, len(s.Deployments))
		for i, d := range s.Deployments {
			c.Deployments[i] = d
			if d.Spec != nil {
				sp := *d.Spec
				sp.CPs = append([]AS(nil), d.Spec.CPs...)
				if d.Spec.CPs == nil {
					sp.CPs = nil
				}
				c.Deployments[i].Spec = &sp
			}
		}
	}
	return &c
}

// Canonical returns the spec's normal form: version pinned, defaults
// resolved (topology size, model axis, pair caps), alias spellings
// replaced by their canonical names (attack, incremental), and
// deployment display names defaulted from their Named field. Two specs
// describe the same job exactly when their canonical forms are equal;
// Simulation.JobSpec always returns a canonical spec. Canonical assumes
// a valid spec (call Validate first on untrusted input).
func (s *JobSpec) Canonical() *JobSpec {
	c := s.Clone()
	c.Version = JobSpecVersion
	if c.Topology.GraphFile == "" && c.Topology.N == 0 {
		c.Topology.N = 4000
	}
	if len(c.Models) == 0 {
		c.Models = []int{1, 2, 3}
	}
	for i := range c.Deployments {
		if c.Deployments[i].Name == "" {
			c.Deployments[i].Name = c.Deployments[i].Named
		}
	}
	if a, err := ParseAttack(c.Attack); err == nil {
		c.Attack = a.Name()
	}
	if m, err := sweep.ParseIncrementalMode(c.Incremental); err == nil {
		c.Incremental = m.String()
	}
	if !c.Pairs.Full {
		if c.Pairs.MaxM == 0 {
			c.Pairs.MaxM = DefaultMaxM
		}
		if c.Pairs.MaxD == 0 {
			c.Pairs.MaxD = DefaultMaxD
		}
	}
	return c
}

// WriteJSON serializes the spec, indented, with a trailing newline.
func (s *JobSpec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJobSpec parses and validates one JSON job spec. The decode is
// strict: unknown fields and trailing data are errors, so a typo'd
// option fails loudly instead of silently meaning its default.
func ReadJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sbgp: job spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("sbgp: job spec: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadJobSpec is ReadJobSpec from a file — the CLIs' -job loader.
func LoadJobSpec(path string) (*JobSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadJobSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Load materializes the topology the section names, before any IXP
// augmentation: the graph file parsed (with empty metadata), or the
// (N, Seed) synthetic Internet generated with the seed taken as
// explicit. It is the one loader behind Scenario.Simulate and the
// daemon's warm-topology cache, so a cached (graph, meta) is by
// construction what Simulate would have built. Load reads the section as
// written; hold a canonical spec so N is resolved.
func (t TopologySpec) Load() (*Graph, *TopologyMeta, error) {
	return t.load(TopologyParams{})
}

// load is Load with the generator parameters beyond (n, seed) supplied —
// the part of WithTopologyParams the wire cannot carry.
func (t TopologySpec) load(p TopologyParams) (*Graph, *TopologyMeta, error) {
	if t.GraphFile != "" {
		f, err := os.Open(t.GraphFile)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := asgraph.ReadFrom(f)
		if err != nil {
			return nil, nil, err
		}
		return g, &TopologyMeta{}, nil
	}
	p.N, p.Seed, p.SeedSet = t.N, t.Seed, true
	return topogen.Generate(p)
}

// FromJobSpec builds the Scenario a spec describes: the spec is
// validated and its canonical copy becomes the scenario's configuration
// — the same struct the With* options write — so the resulting
// Simulation's JobSpec() returns exactly that canonical form. Extra
// options are applied on top (WithContext is the common one — a job's
// cancellation plumbing).
func FromJobSpec(spec *JobSpec, extra ...Option) (*Scenario, error) {
	return scenarioFromSpec(spec, nil, nil, extra)
}

// FromJobSpecOnGraph is FromJobSpec with the topology supplied by the
// caller instead of loaded or generated per the spec — the resident
// daemon's warm-topology path: the service materializes each distinct
// topology section once (TopologySpec.Load) and rebuilds scenarios for
// every job against the cached graph. The caller asserts (g, meta) are
// exactly what the spec's topology section would produce before any IXP
// augmentation (which still happens per the spec); everything else
// applies unchanged, so results are byte-identical to FromJobSpec.
func FromJobSpecOnGraph(spec *JobSpec, g *Graph, meta *TopologyMeta, extra ...Option) (*Scenario, error) {
	if g == nil {
		return nil, fmt.Errorf("sbgp: FromJobSpecOnGraph needs a graph")
	}
	return scenarioFromSpec(spec, g, meta, extra)
}

func scenarioFromSpec(spec *JobSpec, g *Graph, meta *TopologyMeta, extra []Option) (*Scenario, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sc := newScenario(*spec.Canonical())
	sc.graph, sc.meta, sc.topologySet = g, meta, true
	if len(sc.spec.Models) == 1 {
		// A single-model job's model is also the primary one for single
		// runs.
		sc.model = Model(sc.spec.Models[0] - 1)
	}
	for _, o := range extra {
		o(sc)
	}
	return sc, nil
}
