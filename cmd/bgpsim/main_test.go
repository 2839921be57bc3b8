package main

import (
	"flag"
	"strings"
	"testing"
)

// TestParseFlagsJobConflicts pins -job's command line: it takes only
// -workers and -v beside it, any single-run flag fails naming that flag,
// and the retired grid-flag spelling fails as undefined flags.
func TestParseFlagsJobConflicts(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // "" means the line parses
	}{
		{[]string{"-job", "spec.json"}, ""},
		{[]string{"-job", "spec.json", "-workers", "2", "-v"}, ""},
		{[]string{"-n", "400", "-d", "17", "-m", "212", "-workers", "2"}, ""},
		{[]string{"-job", "spec.json", "-n", "400"}, "-n "},
		{[]string{"-job", "spec.json", "-workers", "2", "-deploy", "t1t2"}, "-deploy "},
		{[]string{"-job", "spec.json", "-attack", "pad-2", "-v"}, "-attack "},
		{[]string{"-job", "spec.json", "-d", "17"}, "-d "},
		{[]string{"-job", "spec.json", "-graph", "g.txt"}, "-graph "},
		{[]string{"-sweep"}, "not defined: -sweep"},
		{[]string{"-n", "400", "-incremental=off"}, "not defined: -incremental"},
		{[]string{"-checkpoint", "x"}, "not defined: -checkpoint"},
		{[]string{"-job", "spec.json", "-maxm", "6"}, "not defined: -maxm"},
		{[]string{"-full"}, "not defined: -full"},
	} {
		fs := flag.NewFlagSet("bgpsim", flag.ContinueOnError)
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
