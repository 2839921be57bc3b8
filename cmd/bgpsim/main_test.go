package main

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"

	"sbgp"
)

// sweepSpecOf parses a -sweep command line the way main does and
// returns the job it spells.
func sweepSpecOf(t *testing.T, args ...string) *sbgp.JobSpec {
	t.Helper()
	o, err := parseFlags(flag.NewFlagSet("bgpsim", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	spec := o.sweepSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec.Canonical()
}

// TestLegacySweepSpecMatchesJobFile pins the two spellings at the spec
// level: the deprecated -sweep grid flags fill in exactly the spec a
// -job file would carry.
func TestLegacySweepSpecMatchesJobFile(t *testing.T) {
	legacy := sweepSpecOf(t, "-sweep", "-n", "300", "-seed", "7", "-lpk", "2", "-deploy", "t1t2",
		"-attack", "spoof", "-maxm", "6", "-maxd", "8", "-shards", "64",
		"-checkpoint", "sweep.ckpt", "-workers", "2")
	fromFile, err := sbgp.ReadJobSpec(strings.NewReader(`{
		"version": 1,
		"topology": {"n": 300, "seed": 7},
		"lpk": 2,
		"deployments": [{"named": "t1t2"}],
		"attack": "origin-spoof",
		"pairs": {"max_m": 6, "max_d": 8},
		"shard_size": 64,
		"checkpoint": "sweep.ckpt",
		"workers": 2
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, fromFile.Canonical()) {
		l, _ := json.Marshal(legacy)
		f, _ := json.Marshal(fromFile.Canonical())
		t.Errorf("flag spelling and spec file diverge:\nflags %s\n file %s", l, f)
	}
}

// TestLegacySweepSpecVariants covers the remaining flag shapes: the
// all-defaults command line, the graph-file source, the "none"
// deployment, full enumeration, and the -incremental spellings.
func TestLegacySweepSpecVariants(t *testing.T) {
	if got, want := sweepSpecOf(t, "-sweep"), (&sbgp.JobSpec{Topology: sbgp.TopologySpec{Seed: 1}}).Canonical(); !reflect.DeepEqual(got, want) {
		t.Errorf("bare -sweep is not the default job:\n got %+v\nwant %+v", got, want)
	}

	graph := sweepSpecOf(t, "-sweep", "-graph", "g.txt", "-deploy", "none")
	if graph.Topology.GraphFile != "g.txt" || graph.Topology.N != 0 || graph.Topology.Seed != 0 {
		t.Errorf("graph-file source mishandled: %+v", graph.Topology)
	}
	if len(graph.Deployments) != 0 {
		t.Errorf("deploy=none added a deployment: %+v", graph.Deployments)
	}

	full := sweepSpecOf(t, "-sweep", "-n", "300", "-seed", "7", "-deploy", "t2", "-full")
	if !full.Pairs.Full || full.Pairs.MaxM != 0 || full.Pairs.MaxD != 0 {
		t.Errorf("full spelling kept sampling caps: %+v", full.Pairs)
	}

	// "on" is accepted input from the mode's three-state days and means
	// auto; a bare -incremental (no value) is no longer a spelling.
	for in, want := range map[string]string{"auto": "auto", "on": "auto", "off": "off"} {
		if got := sweepSpecOf(t, "-sweep", "-incremental="+in).Incremental; got != want {
			t.Errorf("-incremental=%s canonicalises to %q, want %q", in, got, want)
		}
	}
	fs := flag.NewFlagSet("bgpsim", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	if _, err := parseFlags(fs, []string{"-sweep", "-incremental=maybe"}); err == nil {
		t.Error("-incremental=maybe accepted")
	}
}
