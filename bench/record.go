package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"sbgp"
)

// A record file (out/<label>.json) stores every observation beside the
// parameters that make it comparable to another: two records are
// compared only when their params agree on everything but the commit.

// benchParams describes the machine, the build and the run settings.
type benchParams struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	TmpFS      string  `json:"tmpdir_fs"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	// Workloads holds each measured workload's geometry, keyed
	// "<workload>/seed=<n>".
	Workloads map[string]*workloadParams `json:"workloads"`
}

// workloadParams is the geometry of one workload at one seed: what the
// jobs were, not how fast they ran.
type workloadParams struct {
	GraphN    int    `json:"graph_n"`
	Cells     int    `json:"cells"`
	Shards    int    `json:"shards"`
	Units     int    `json:"units"`
	ShardSize int    `json:"shard_size"`
	Workers   int    `json:"workers"`
	Cycle     int    `json:"cycle"`
	Setups    int    `json:"setups"`
	Digest    string `json:"reference_sha256"`
}

// observation is one run's outcome.
type observation struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type record struct {
	Params benchParams   `json:"params"`
	Runs   []observation `json:"runs"`
}

// describeWorkload plans the cycle's first spec to read off the job
// geometry.
func describeWorkload(setups int, specs []*sbgp.JobSpec, digest string) (*workloadParams, error) {
	spec := specs[0]
	sc, err := sbgp.FromJobSpec(spec)
	if err != nil {
		return nil, err
	}
	sim, err := sc.Simulate()
	if err != nil {
		return nil, err
	}
	layout, units, err := sim.JobShardPlan()
	if err != nil {
		return nil, err
	}
	return &workloadParams{
		GraphN:    sim.Graph().N(),
		Cells:     layout.Cells,
		Shards:    layout.Shards,
		Units:     len(units),
		ShardSize: layout.ShardSize,
		Workers:   spec.Workers,
		Cycle:     len(specs),
		Setups:    setups,
		Digest:    digest,
	}, nil
}

func newParams(sc scale, seconds float64, tmpRoot string) benchParams {
	return benchParams{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		TmpFS:      fsType(tmpRoot),
		Scale:      sc.name,
		Seconds:    seconds,
		Workloads:  map[string]*workloadParams{},
	}
}

// commit is the VCS revision stamped into the binary, or BENCH_COMMIT
// (a `go run` build carries no stamp), or "unknown".
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding path: the type of the longest
// mount point that prefixes it. Checkpoint fsync on tmpfs is free, so a
// record taken there is not comparable to one taken on a disk.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

func writeRecord(path string, r *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r record
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// paramsDiff names the fields in which two records' parameters differ,
// the commit aside — comparing two commits is the point.
func paramsDiff(a, b benchParams) []string {
	var diff []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Tag.Get("json")
		if name == "commit" || name == "workloads" {
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			diff = append(diff, fmt.Sprintf("%s (%v vs %v)", name, va.Field(i).Interface(), vb.Field(i).Interface()))
		}
	}
	keys := map[string]bool{}
	for k := range a.Workloads {
		keys[k] = true
	}
	for k := range b.Workloads {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		wa, wb := a.Workloads[k], b.Workloads[k]
		switch {
		case wa == nil || wb == nil:
			diff = append(diff, fmt.Sprintf("workloads[%s] (present in one record only)", k))
		case *wa != *wb:
			diff = append(diff, fmt.Sprintf("workloads[%s] (%+v vs %+v)", k, *wa, *wb))
		}
	}
	return diff
}

// values collects one end-to-end metric of one workload over a record's
// untraced runs.
func (r *record) values(workload, name string) []float64 {
	var xs []float64
	for _, o := range r.Runs {
		if o.Workload == workload && !o.Trace {
			if m, ok := o.Metrics[name]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// worsening is by how much of a's median b's median is worse, in the
// metric's own direction (negative: b is better).
func worsening(d metricDecl, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareRecords prints, per end-to-end metric and workload, both
// medians, how much worse b is than a, the run-to-run spread of each
// side and the bound. It counts the pairs in which b is worse than a by
// more than the bound (failed or incorrect runs count too) and the
// pairs whose spread exceeds the bound, where the comparison resolves
// nothing. It refuses records whose parameters differ.
func compareRecords(w io.Writer, a, b *record) (regressed, unresolved int, err error) {
	if diff := paramsDiff(a.Params, b.Params); len(diff) > 0 {
		return 0, 0, fmt.Errorf("records are not comparable, parameters differ:\n  %s", strings.Join(diff, "\n  "))
	}
	failed := 0
	for _, r := range []*record{a, b} {
		for _, o := range r.Runs {
			failed += o.Failed
			if !o.Correct {
				failed++
			}
		}
	}
	fmt.Fprintf(w, "a: commit %s, b: commit %s; failed or incorrect runs: %d\n", a.Params.Commit, b.Params.Commit, failed)
	fmt.Fprintf(w, "%-15s %-13s %14s %14s %8s %9s %9s %6s  %s\n",
		"metric", "workload", "a median", "b median", "worse", "a spread", "b spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worse := worsening(d, median(xa), median(xb))
			sa, sb := quartileSpread(xa), quartileSpread(xb)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressed++
			case max(sa, sb) > d.Bound && d.Name != "setup_s":
				verdict = "unresolved (spread > bound)"
				unresolved++
			}
			fmt.Fprintf(w, "%-15s %-13s %14.6g %14.6g %+7.1f%% %8.1f%% %8.1f%% %5.0f%%  %s\n",
				d.Name, wl.name, median(xa), median(xb), 100*worse, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	return regressed + failed, unresolved, nil
}
