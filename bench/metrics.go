package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDecl declares one metric of the benchmark. The tables below are
// the single source of BENCHMARK.json (`-manifest` prints it; a test
// pins the committed file to them).
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// runSeconds is how long one run measures.
const runSeconds = 15

// endToEnd is what a user of the system sees, measured with tracing
// off. A job is one closed-loop submit → verified-result-bytes
// operation on the workload's path; cells is the number of grid cells
// the job evaluates; times are seconds at reference speed (calib.go)
// and percentiles are over the specs of the workload's job mix
// (specTimes). Bounds are the share of the parent's median by which a
// later change may worsen the metric; they were set from the A/A gaps
// and seed-to-seed spreads measured on a shared 2-core box (README,
// "Records" and "Noise").
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.20},
	{"job_s_p50", "s", "lower", 0.20},
	{"job_s_p75", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
	{"allocs_per_job", "count", "lower", 0.05},
}

// perLayer is the traced run: one or more numbers per layer boundary,
// chosen as the ones an optimisation of that layer should move.
var perLayer = []metricDecl{
	{Name: "topogen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "asgraph.classify_ms", Unit: "ms", Better: "lower"},
	{Name: "deploy.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_us", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "core.delta_us", Unit: "us", Better: "lower"},
	{Name: "core.delta_speedup", Unit: "ratio", Better: "higher"},
	{Name: "runner.foreach_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "sweep.scaling_eff", Unit: "ratio", Better: "higher"},
	{Name: "sweep.scaling_eff_s64", Unit: "ratio", Better: "higher"},
	{Name: "sweep.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.walk_s", Unit: "s", Better: "lower"},
	{Name: "sweep.walk_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "sweep.delta_saving_frac", Unit: "ratio", Better: "higher"},
	{Name: "sweep.units", Unit: "count", Better: "higher"},
	{Name: "sweep.handoff_hits", Unit: "count", Better: "higher"},
	{Name: "sweep.handoff_misses", Unit: "count", Better: "lower"},
	{Name: "sweep.chain_heads", Unit: "count", Better: "lower"},
	{Name: "sweep.delta_edges", Unit: "count", Better: "higher"},
	{Name: "sweep.predicted_volume", Unit: "count", Better: "lower"},
	{Name: "sweep.commit_us_per_record", Unit: "us", Better: "lower"},
	{Name: "sweep.commit_records", Unit: "count", Better: "lower"},
	{Name: "sweep.commit_bytes", Unit: "B", Better: "lower"},
	{Name: "sweep.commit_share", Unit: "ratio", Better: "lower"},
	{Name: "sweep.fresh_s_p50", Unit: "s", Better: "lower"},
	{Name: "sweep.resume_s_p50", Unit: "s", Better: "lower"},
	{Name: "sweep.resume_parse_us_per_record", Unit: "us", Better: "lower"},
	{Name: "sweep.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "sbgp.simulate_ms", Unit: "ms", Better: "lower"},
	{Name: "sbgp.evaluate_job_s", Unit: "s", Better: "lower"},
	{Name: "sbgp.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "sbgp.result_bytes", Unit: "B", Better: "lower"},
	{Name: "sbgp.ladder_residual_frac", Unit: "ratio", Better: "lower"},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.result_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "service.job_ms_max", Unit: "ms", Better: "lower"},
	{Name: "service.warm_topologies", Unit: "count", Better: "higher"},
	{Name: "service.warm_engines", Unit: "count", Better: "higher"},
	{Name: "dist.leases_per_job", Unit: "count", Better: "lower"},
	{Name: "dist.http_calls_per_job", Unit: "count", Better: "lower"},
	{Name: "dist.bytes_up_per_job", Unit: "B", Better: "lower"},
	{Name: "dist.bytes_down_per_job", Unit: "B", Better: "lower"},
	{Name: "dist.shards_accepted_per_job", Unit: "count", Better: "lower"},
	{Name: "dist.duplicates", Unit: "count", Better: "lower"},
	{Name: "dist.leases_expired", Unit: "count", Better: "lower"},
	{Name: "dist.worker_open_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.worker_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "dist.speedup_vs_oneshot", Unit: "ratio", Better: "higher"},
	{Name: "harness.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "harness.spans", Unit: "count", Better: "lower"},
}

// declared returns the metric table a run of that kind must fill.
func declared(trace bool) []metricDecl {
	if trace {
		return perLayer
	}
	return endToEnd
}

// withUnits attaches the declared units to measured values, failing on
// a metric that was declared but not measured or the reverse.
func withUnits(decls []metricDecl, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is declared but was not measured (value %v)", d.Name, v)
		}
		out[d.Name] = metric{v, d.Unit}
	}
	if len(values) != len(decls) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s was measured but is not declared", name)
			}
		}
	}
	return out, nil
}

// manifest renders BENCHMARK.json from the tables.
func manifest() ([]byte, error) {
	type workloadDecl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type perLayerDecl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []metricDecl   `json:"end_to_end"`
		PerLayer   []perLayerDecl `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDecl{w.name, w.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, perLayerDecl{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	return append(data, '\n'), err
}
