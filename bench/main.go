// Command bench is the repository's benchmark: five closed-loop
// workloads over the job ladder (one-shot, durable, daemon,
// distributed), six end-to-end metrics measured with tracing off, and a
// traced run that attributes time to each layer. README.md has the
// tables; BENCHMARK.json at the repository root is the contract
// (`-manifest` prints it from the tables in metrics.go).
//
// Run it from this directory's module:
//
//	go run -C bench . --workload headline --seed 1 --seconds 12 --trace 0
//	go run -C bench .                 # every workload once, record in out/last.json
//	go run -C bench . -trace 1        # ... plus the traced per-layer runs
//	go run -C bench . -aa             # two sets of ten runs, gaps against the bounds
//	go run -C bench . -compare out/a.json out/b.json
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	aa       bool
	compare  bool
	manifest bool
	runs     int
	out      string
	tmpdir   string
	outDir   string // where records and traces go; "out" outside tests
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	o := options{outDir: "out"}
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same topologies and jobs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced per-layer run (with no -workload: in addition to the untraced one)")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny topologies and two jobs per workload: exercises every path, measures nothing")
	fs.BoolVar(&o.aa, "aa", false, "run two sets of -runs runs of the same code and print their gaps against the bounds")
	fs.BoolVar(&o.compare, "compare", false, "compare two record files given as arguments")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json")
	fs.IntVar(&o.runs, "runs", 0, "runs per workload in a set, each on its own seed (default 1; 10 with -aa)")
	fs.StringVar(&o.out, "out", "", "label: write the record to out/<label>.json (default \"last\" for a set)")
	fs.StringVar(&o.tmpdir, "tmpdir", filepath.Join("out", "tmp"), "scratch directory for checkpoints and daemon data; keep it on a real disk")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace wants 0 or 1, got %d", o.trace)
	}
	if o.smoke && !flagSet(fs, "seconds") {
		o.seconds = 0
	}
	switch {
	case o.manifest:
		data, err := manifest()
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	case o.compare:
		return compareFiles(stdout, fs.Args())
	case o.workload != "":
		return single(stdout, o)
	case o.aa:
		return runAA(stdout, o)
	default:
		rec, err := runSet(stdout, o, "set")
		if err != nil {
			return err
		}
		return finishSet(stdout, o, rec, cmp.Or(o.out, "last"))
	}
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func (o options) scale() scale {
	if o.smoke {
		return smokeScale
	}
	return fullScale
}

// single is the contract invocation: one workload, one seed, one time
// box, in this process; the last line of output is the result object.
func single(stdout io.Writer, o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	cfg := runConfig{
		workload: w, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		scale: o.scale(), tmpRoot: o.tmpdir, log: stdout,
	}
	if cfg.trace {
		cfg.traceOut = filepath.Join(o.outDir, "trace-"+w.name+".json")
	}
	res, wp, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if o.out != "" {
		rec := &record{Params: newParams(cfg.scale, o.seconds, o.tmpdir)}
		rec.add(w.name, o.seed, cfg.trace, res, wp)
		if err := writeRecord(filepath.Join(o.outDir, o.out+".json"), rec); err != nil {
			return err
		}
	}
	if err := printResult(stdout, w.name, declared(cfg.trace), res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("workload %s: %d of %d jobs failed or the reference digest moved", w.name, res.Failed, res.Attempted)
	}
	return nil
}

func (r *record) add(workload string, seed int64, trace bool, res *runResult, wp *workloadParams) {
	r.Params.Workloads[fmt.Sprintf("%s/seed=%d", workload, seed)] = wp
	r.Runs = append(r.Runs, observation{
		Workload: workload, Seed: seed, Trace: trace,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	})
}

// runSet makes o.runs passes over the workload list, every run in a
// fresh child process (so peak RSS and the allocator start clean) and
// every pass on its own seed. Interleaving the workloads keeps slow
// machine drift out of any one workload's numbers.
func runSet(stdout io.Writer, o options, title string) (*record, error) {
	runs := max(o.runs, 1)
	rec := &record{Params: newParams(o.scale(), o.seconds, o.tmpdir)}
	for r := 0; r < runs; r++ {
		seed := o.seed + int64(r)
		for _, w := range workloads {
			// One traced run per workload is enough: it has no bounds.
			for trace := 0; trace <= o.trace && (trace == 0 || r == 0); trace++ {
				fmt.Fprintf(stdout, "== %s: run %d/%d workload %s seed %d trace %d\n", title, r+1, runs, w.name, seed, trace)
				if err := runChild(stdout, o, w.name, seed, trace, rec); err != nil {
					return nil, err
				}
			}
		}
	}
	return rec, nil
}

// runChild re-executes this binary for one run and merges the record it
// writes. The child's lines pass through, its result object does not.
func runChild(stdout io.Writer, o options, workload string, seed int64, trace int, into *record) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	label := fmt.Sprintf("child-%d", os.Getpid())
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-tmpdir", o.tmpdir, "-out", label,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Bytes(); !json.Valid(line) {
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	path := filepath.Join(o.outDir, label+".json")
	defer os.Remove(path)
	child, err := readRecord(path)
	if err != nil {
		if runErr != nil {
			return fmt.Errorf("run of %s failed: %w", workload, runErr)
		}
		return err
	}
	for k, v := range child.Params.Workloads {
		into.Params.Workloads[k] = v
	}
	into.Runs = append(into.Runs, child.Runs...)
	return nil
}

// finishSet writes the set's record and fails on any failed job.
func finishSet(stdout io.Writer, o options, rec *record, label string) error {
	path := filepath.Join(o.outDir, label+".json")
	if err := writeRecord(path, rec); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "record written to %s\n", path)
	return rec.failures()
}

func (r *record) failures() error {
	for _, o := range r.Runs {
		if !o.Correct {
			return fmt.Errorf("workload %s seed %d: %d of %d jobs failed or the reference digest moved", o.Workload, o.Seed, o.Failed, o.Attempted)
		}
	}
	return nil
}

func compareFiles(stdout io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants two record files, got %d", len(paths))
	}
	a, err := readRecord(paths[0])
	if err != nil {
		return err
	}
	b, err := readRecord(paths[1])
	if err != nil {
		return err
	}
	regressed, _, err := compareRecords(stdout, a, b)
	if err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%s is worse than %s beyond a bound, or a job failed", paths[1], paths[0])
	}
	return nil
}
