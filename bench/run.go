package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sbgp"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the object a run prints as its last line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation: a workload, a seed, a time box.
type runConfig struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	tmpRoot  string    // parent of the run's scratch directory
	traceOut string    // where a traced run writes its spans ("" to skip)
	log      io.Writer // human-readable progress and metric lines
}

//go:embed testdata/digests.json
var digestsJSON []byte

// sample is one timed job.
type sample struct {
	spec   int     // index into the cycle
	wall   float64 // the job's wall seconds
	kernel float64 // the calibration kernel's wall seconds right after it
	cells  int
	sum    [sha256.Size]byte
	err    error
}

// runWorkload executes one run and returns its result and the
// parameters that make it comparable to another run.
func runWorkload(cfg runConfig) (*runResult, *workloadParams, error) {
	w := cfg.workload
	specs := w.specs(cfg.seed, cfg.scale)
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, "run-"+w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: build the environment and warm it, several times over;
	// keep the last one for the timed loop.
	warm := w.warm
	if warm == 0 || warm > len(specs) {
		warm = len(specs)
	}
	var e env
	var setups []float64
	var warmSamples []sample
	cal := newCalibrator()
	for r := 0; r < cfg.scale.setups; r++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, fmt.Errorf("set-up %d: close: %w", r, err)
			}
		}
		t0 := time.Now()
		sub := filepath.Join(dir, fmt.Sprintf("env-%d", r))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, nil, err
		}
		if e, err = openEnv(w.path, sub); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", r, err)
		}
		warmSamples = warmSamples[:0]
		for j := 0; j < warm; j++ {
			res, err := e.job(nil, -1, -1, specs[j])
			if err != nil {
				e.close()
				return nil, nil, fmt.Errorf("warm-up job on spec %d: %w", j, err)
			}
			warmSamples = append(warmSamples, sample{spec: j, sum: sha256.Sum256(res.bytes)})
		}
		wall := time.Since(t0).Seconds()
		setups = append(setups, atReference(wall, median([]float64{cal.run(), cal.run(), cal.run()})))
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()

	var samples []sample
	var layer map[string]float64
	var ms0, ms1 runtime.MemStats
	if cfg.trace {
		layer, samples, err = runLadder(cfg, e, specs, filepath.Join(dir, "ladder"))
		if err != nil {
			return nil, nil, err
		}
	} else {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		samples = timedLoop(cfg, e, specs, cal)
		runtime.ReadMemStats(&ms1)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	err = e.close()
	e = nil
	if err != nil {
		return nil, nil, fmt.Errorf("close: %w", err)
	}

	// Verification: every job's bytes against a reference computed here
	// by an independent path, and the references against the committed
	// digests when the inputs are the ones the digests were taken on.
	refs := make([][sha256.Size]byte, len(specs))
	all := sha256.New()
	for j, s := range specs {
		ref, err := referenceBytes(s)
		if err != nil {
			return nil, nil, fmt.Errorf("reference for spec %d: %w", j, err)
		}
		refs[j] = sha256.Sum256(ref)
		all.Write(ref)
	}
	res := &runResult{Correct: true, Attempted: len(samples), Metrics: map[string]metric{}}
	for _, s := range samples {
		switch {
		case s.err != nil:
			fmt.Fprintf(cfg.log, "FAILED job on spec %d: %v\n", s.spec, s.err)
			res.Failed++
		case s.sum != refs[s.spec]:
			fmt.Fprintf(cfg.log, "MISMATCH job on spec %d: result bytes differ from the reference\n", s.spec)
			res.Failed++
		}
	}
	for _, s := range warmSamples {
		if s.sum != refs[s.spec] {
			return nil, nil, fmt.Errorf("warm-up job on spec %d: result bytes differ from the reference", s.spec)
		}
	}
	digest := hex.EncodeToString(all.Sum(nil))
	if cfg.scale.name == fullScale.name {
		if want, ok := committedDigest(w.name, cfg.seed); ok && want != digest {
			fmt.Fprintf(cfg.log, "DIGEST workload %s seed %d: references hash to %s, committed digest is %s\n",
				w.name, cfg.seed, digest, want)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	params, err := describeWorkload(cfg.scale.setups, specs, digest)
	if err != nil {
		return nil, nil, err
	}
	if cfg.trace {
		res.Metrics, err = withUnits(perLayer, layer)
		return res, params, err
	}

	times, walls, cells := specTimes(samples, len(specs))
	if len(times) == 0 {
		return nil, nil, fmt.Errorf("no job of workload %s succeeded", w.name)
	}
	fmt.Fprintf(cfg.log, "samples %s %d jobs over %d specs, %d specs beyond p75, %d set-ups\n",
		w.name, len(samples), len(times), samplesBeyond(times, 0.75), len(setups))
	fmt.Fprintf(cfg.log, "wall    %s job_s_p50 %.6g s on the clock, %.6g s at reference speed\n",
		w.name, median(walls), median(times))
	res.Metrics, err = withUnits(endToEnd, map[string]float64{
		"setup_s":        median(setups),
		"cells_per_s":    float64(cells) / sum(times),
		"job_s_p50":      median(times),
		"job_s_p75":      quantile(times, 0.75),
		"peak_rss_mb":    rss,
		"allocs_per_job": float64(ms1.Mallocs-ms0.Mallocs) / float64(len(samples)),
	})
	return res, params, err
}

// specTimes reduces the timed jobs to one time per spec of the cycle:
// the median over the spec's successful repeats of the job's time at
// reference speed (calib.go). It returns the times of the specs that
// have one, their plain wall-clock medians for the log, and the total
// cells of those specs' jobs. The percentiles a run reports are taken
// over this list, so they describe the spread of the job mix, not of
// the machine.
func specTimes(samples []sample, nspecs int) (times, walls []float64, cells int) {
	ref := make([][]float64, nspecs)
	wall := make([][]float64, nspecs)
	jobCells := make([]int, nspecs)
	for _, s := range samples {
		if s.err == nil {
			ref[s.spec] = append(ref[s.spec], atReference(s.wall, s.kernel))
			wall[s.spec] = append(wall[s.spec], s.wall)
			jobCells[s.spec] = s.cells
		}
	}
	for j := range ref {
		if len(ref[j]) > 0 {
			times = append(times, median(ref[j]))
			walls = append(walls, median(wall[j]))
			cells += jobCells[j]
		}
	}
	return times, walls, cells
}

// timedLoop is the closed loop: one client walks the spec cycle
// round-robin until the time box is spent, finishing the job it is on.
// The calibration kernel runs after every job (a few ms of think time).
func timedLoop(cfg runConfig, e env, specs []*sbgp.JobSpec, cal *calibrator) []sample {
	var samples []sample
	start := time.Now()
	for i := 0; ; i++ {
		if i >= cfg.scale.minJobs && time.Since(start).Seconds() >= cfg.seconds {
			return samples
		}
		s := runJob(e, nil, i, specs)
		s.kernel = cal.run()
		samples = append(samples, s)
	}
}

// runJob pushes the i-th job of the loop through the environment.
func runJob(e env, tr *tracer, i int, specs []*sbgp.JobSpec) sample {
	j := i % len(specs)
	res, err := e.job(tr, i, -1, specs[j])
	return sample{spec: j, wall: res.wall, cells: res.cells, sum: sha256.Sum256(res.bytes), err: err}
}

// referenceBytes computes a spec's result by a path that shares as
// little as possible with the measured ones: the flat evaluator
// (Simulation.Sweep, not the sharded EvaluateJob), from-scratch runs
// only (incremental off), no checkpoint.
func referenceBytes(spec *sbgp.JobSpec) ([]byte, error) {
	ref := spec.Clone()
	ref.Incremental = "off"
	ref.Checkpoint, ref.Resume = "", false
	ref.Workers, ref.ShardSize = 0, 0
	sc, err := sbgp.FromJobSpec(ref)
	if err != nil {
		return nil, err
	}
	sim, err := sc.Simulate()
	if err != nil {
		return nil, err
	}
	ms, ds := sim.JobPairs()
	res, err := sim.Sweep(ms, ds)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// committedDigest looks up testdata/digests.json, which pins the
// reference bytes of every workload for the seeds listed there — so a
// change that moves the measured paths and the reference path together
// is still caught.
func committedDigest(workload string, seed int64) (string, bool) {
	var table map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		return "", false
	}
	d, ok := table[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// printResult writes the metric lines and, last, the result object.
func printResult(w io.Writer, workload string, decls []metricDecl, res *runResult) error {
	for _, d := range decls {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "metric %-32s %-13s %s %s\n", d.Name, workload, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "jobs   %-32s %-13s attempted %d failed %d\n", "failed_frac", workload, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
