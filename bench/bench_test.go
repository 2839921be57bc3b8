package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}

	// A reported percentile needs ten samples beyond it: 41 evenly
	// spread samples give p75 exactly that many.
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	if got := samplesBeyond(ramp(41), 0.75); got != 10 {
		t.Errorf("41 samples: %d beyond p75, want 10", got)
	}
	if got := samplesBeyond(ramp(36), 0.75); got != 9 {
		t.Errorf("36 samples: %d beyond p75, want 9", got)
	}

	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := quartileSpread(ramp(11)[1:]); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 13, 14, 20], n=4) == [10.5, 13.0, 17.0].
	if got := quartileSpread([]float64{14, 10, 20, 11, 13}); !near(got, 6.5/13) {
		t.Errorf("quartileSpread = %v, want %v", got, 6.5/13)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Job: 0, Name: "rung", Start: 0, End: 100},
		{ID: 1, Parent: 0, Job: 0, Name: "a", Start: 10, End: 40},    // nested
		{ID: 2, Parent: 1, Job: 0, Name: "leaf", Start: 15, End: 25}, // grandchild
		{ID: 3, Parent: 0, Job: 0, Name: "b", Start: 30, End: 60},    // overlaps a
		{ID: 4, Parent: 0, Job: 0, Name: "b", Start: 90, End: 120},   // sticks out
		{ID: 5, Parent: 0, Job: 0, Name: "a", Start: 35, End: 38},    // inside covered time
		{ID: 6, Parent: -1, Job: 1, Name: "rung", Start: 200, End: 230},
		{ID: 7, Parent: 6, Job: 1, Name: "a", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	// rung 0: 100 − |[10,60] ∪ [90,100]| = 100 − 60 = 40.
	want := []int64{40, 20, 10, 30, 30, 3, 20, 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	per := perJobSelf(spans)
	if got := per[spanKey{"rung", "a"}]; !reflect.DeepEqual(got, []float64{23e-9, 10e-9}) {
		t.Errorf("per-job self of a = %v", got)
	}
	if got := per[spanKey{"rung", "leaf"}]; !reflect.DeepEqual(got, []float64{10e-9}) {
		t.Errorf("per-job self of leaf = %v", got)
	}

	var off *tracer
	if id := off.begin(0, -1, "x"); id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	off.end(-1)
	if d, err := off.do(0, -1, "x", func(int) error { return nil }); err != nil || d < 0 {
		t.Errorf("nil tracer do: %v %v", d, err)
	}
}

func TestSpecsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		a, _ := json.Marshal(w.specs(7, fullScale))
		b, _ := json.Marshal(w.specs(7, fullScale))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed built different specs", w.name)
		}
		seeds := map[int64]bool{}
		for _, s := range w.specs(7, fullScale) {
			if c, _ := json.Marshal(s.Canonical()); !bytes.Equal(c, mustJSON(t, s)) {
				t.Errorf("%s: spec is not in canonical form", w.name)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			seeds[s.Topology.Seed] = true
		}
		if len(seeds) != len(w.specs(7, fullScale)) {
			t.Errorf("%s: topology seeds repeat within the cycle", w.name)
		}
		for _, s := range w.specs(8, fullScale) {
			if seeds[s.Topology.Seed] {
				t.Errorf("%s: seeds 7 and 8 share topology seed %d", w.name, s.Topology.Seed)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCompareRefusesDifferentParams(t *testing.T) {
	mk := func() *record {
		r := &record{Params: newParams(fullScale, 12, t.TempDir())}
		r.Params.TmpFS = "ext4"
		for _, v := range []float64{1.0, 1.02, 0.98} {
			r.add("headline", 1, false, &runResult{Correct: true, Attempted: 50, Metrics: map[string]metric{
				"job_s_p50": {v, "s"}, "cells_per_s": {1000 / v, "cells/s"},
			}}, &workloadParams{GraphN: 4000, Cells: 540, Cycle: 32})
		}
		return r
	}
	a, b := mk(), mk()
	b.Params.Commit = "another"
	var out bytes.Buffer
	if regressed, unresolved, err := compareRecords(&out, a, b); err != nil || regressed+unresolved != 0 {
		t.Fatalf("equal records: regressed %d unresolved %d err %v\n%s", regressed, unresolved, err, out.String())
	}

	b.Params.GOMAXPROCS++
	b.Params.Workloads["headline/seed=1"].Cells = 2160
	_, _, err := compareRecords(&out, a, b)
	if err == nil {
		t.Fatal("records with different parameters were compared")
	}
	for _, field := range []string{"gomaxprocs", "workloads[headline/seed=1]"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("refusal does not name %s: %v", field, err)
		}
	}

	// A real regression: b's jobs take 30% longer.
	c := mk()
	for i := range c.Runs {
		c.Runs[i].Metrics["job_s_p50"] = metric{c.Runs[i].Metrics["job_s_p50"].Value * 1.3, "s"}
	}
	out.Reset()
	if regressed, _, err := compareRecords(&out, a, c); err != nil || regressed != 1 {
		t.Errorf("30%% slower jobs: regressed %d err %v\n%s", regressed, err, out.String())
	}
}

// TestManifest pins BENCHMARK.json to the tables in metrics.go and
// checks the contract's limits on it.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why is %d characters or spans lines", w.name, len(w.why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
}

// TestSmoke drives all five paths — one-shot, durable, daemon, and the
// coordinator with two workers — at smoke scale, untraced and traced,
// and checks that every job's bytes verified and that every declared
// metric is printed exactly once.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			var out bytes.Buffer
			dir := t.TempDir()
			o := options{workload: w.name, seed: 1, trace: trace, smoke: true, tmpdir: dir, outDir: dir}
			if err := single(&out, o); err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res runResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result object: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			printed := map[string]int{}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) == 5 && f[0] == "metric" {
					printed[f[1]]++
					if f[2] != w.name || f[4] != res.Metrics[f[1]].Unit {
						t.Errorf("%s trace %d: odd metric line %q", w.name, trace, l)
					}
				}
			}
			decls := declared(trace == 1)
			if len(printed) != len(decls) || len(res.Metrics) != len(decls) {
				t.Errorf("%s trace %d: %d metrics printed, %d in the result, %d declared", w.name, trace, len(printed), len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				if printed[d.Name] != 1 {
					t.Errorf("%s trace %d: metric %s printed %d times", w.name, trace, d.Name, printed[d.Name])
				}
				if v := res.Metrics[d.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace %d: metric %s is %v", w.name, trace, d.Name, v)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}
