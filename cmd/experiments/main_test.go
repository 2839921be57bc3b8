package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sbgp"
	"sbgp/internal/exp"
)

// parse parses a command line the way main does.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	o, err := parseFlags(flag.NewFlagSet("experiments", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestHeadlineSpecMatchesJobFile pins the report flags at the spec
// level: they fill in exactly the spec a bgpsim -job file would carry.
// The file spells the mode "on" — accepted input from its three-state
// days, canonically "auto", the flags' default.
func TestHeadlineSpecMatchesJobFile(t *testing.T) {
	legacy := parse(t, "-n", "300", "-seed", "7", "-maxm", "6", "-maxd", "8", "-workers", "2",
		"-attack", "pad-2").headlineSpec()
	if err := legacy.Validate(); err != nil {
		t.Fatal(err)
	}
	legacy = legacy.Canonical()
	if legacy.Incremental != "auto" {
		t.Errorf(`the flags' default mode canonicalises to %q, want "auto"`, legacy.Incremental)
	}
	fromFile, err := sbgp.ReadJobSpec(strings.NewReader(`{
		"version": 1,
		"topology": {"n": 300, "seed": 7},
		"deployments": [{"named": "t1t2"}, {"named": "t2"}, {"named": "nonstubs"}],
		"attack": "pad-2",
		"incremental": "on",
		"pairs": {"max_m": 6, "max_d": 8},
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

	// The full-enumeration spelling drops the (meaningless) sampling
	// caps instead of carrying the flag defaults.
	fullSpec := parse(t, "-n", "300", "-seed", "7", "-full").headlineSpec()
	if err := fullSpec.Validate(); err != nil {
		t.Fatal(err)
	}
	if !fullSpec.Pairs.Full || fullSpec.Pairs.MaxM != 0 || fullSpec.Pairs.MaxD != 0 {
		t.Errorf("full spelling kept sampling caps: %+v", fullSpec.Pairs)
	}
}

// TestWriteGridJobFileMatchesFlags pins the report flags at the byte
// level: the headline spec they spell, written to a spec file and loaded
// back the way bgpsim -job does, writes the same grid file.
func TestWriteGridJobFileMatchesFlags(t *testing.T) {
	spec := parse(t, "-n", "300", "-seed", "7", "-maxm", "6", "-maxd", "8", "-workers", "2").headlineSpec()
	grid := func(spec *sbgp.JobSpec, name string) []byte {
		t.Helper()
		sim, err := simulate(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeGrid(sim, path, false); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fromFlags := grid(spec, "grid.json")

	specPath := filepath.Join(t.TempDir(), "spec.json")
	f, err := os.Create(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := sbgp.LoadJobSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile := grid(loaded, "grid2.json"); !bytes.Equal(fromFile, fromFlags) {
		t.Error("-job spelling wrote different grid bytes than the flags")
	}
}

// TestParseFlagsSizes pins the size flags' checks: a negative -perdest
// is refused (the sampler would read it as "every secure destination"),
// and -quick, which sets the sizes itself, refuses an explicit one.
func TestParseFlagsSizes(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // "" means the line parses
	}{
		{[]string{"-perdest", "0"}, ""},
		{[]string{"-perdest", "50", "-n", "2000"}, ""},
		{[]string{"-quick", "-seed", "3", "-workers", "1", "-skip-ixp"}, ""},
		{[]string{"-perdest", "-1"}, "-perdest"},
		{[]string{"-quick", "-n", "2000"}, "-n "},
		{[]string{"-quick", "-maxm", "6"}, "-maxm "},
		{[]string{"-maxd", "6", "-quick"}, "-maxd "},
		{[]string{"-quick", "-perdest", "10"}, "-perdest "},
		{[]string{"-job", "spec.json", "-json", "g.json"}, "not defined: -job"},
		{[]string{"-json", "g.json", "-shards", "16"}, "not defined: -shards"},
		{[]string{"-incremental=off"}, "not defined: -incremental"},
		{[]string{"-resume"}, "not defined: -resume"},
	} {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		fs.SetOutput(new(strings.Builder))
		_, err := parseFlags(fs, tc.args)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%q parsed, want an error naming %q", tc.args, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%q: error %q does not name %q", tc.args, err, tc.wantErr)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/report_quick.golden")

// TestQuickReportGolden pins every number the paper report prints: the
// -quick report (report and reportIXP) is byte-compared with
// testdata/report_quick.golden, serially and at GOMAXPROCS. Only seed 1's
// numbers are pinned, here; exp's TestPaperClaims pins the claims' verdicts
// on seeds 1–5, not their numbers. Regenerate with -update.
func TestQuickReportGolden(t *testing.T) {
	const golden = "testdata/report_quick.golden"
	for _, workers := range []string{"1", "0"} {
		o := parse(t, "-quick", "-workers", workers)
		spec := o.headlineSpec()
		sim, err := simulate(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := exp.NewWorkload(sim, o.perDest)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeReport(context.Background(), &buf, o, spec, w); err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to regenerate): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("-workers %s: -quick report differs from %s:\n%s", workers, golden, lineDiff(want, buf.Bytes()))
		}
	}
}

// lineDiff lists the lines two renderings disagree on.
func lineDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("  want: " + wl + "\n   got: " + gl + "\n")
		}
	}
	return b.String()
}
