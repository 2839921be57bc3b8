package main

import (
	"cmp"
	"fmt"
	"io"
)

// exactCounts are the per-layer metrics that count rather than time:
// two sets of the same code on the same seed must report them equal.
var exactCounts = []string{
	"sweep.units", "sweep.handoff_hits", "sweep.handoff_misses", "sweep.chain_heads",
	"sweep.delta_edges", "sweep.predicted_volume", "sweep.commit_records", "sweep.commit_bytes",
	"dist.shards_accepted_per_job", "sbgp.result_bytes",
}

// runAA is the benchmark's own acceptance check: two sets of runs of
// the same code, one after the other, must agree within every bound,
// and within each set the seed-to-seed spread must stay inside the
// bound too (set-up time excepted). With -trace 1 each set also makes
// one traced run per workload and the exact counts must be identical.
func runAA(stdout io.Writer, o options) error {
	if o.runs == 0 {
		o.runs = 10
	}
	var sets [2]*record
	for i, title := range []string{"set A", "set B"} {
		rec, err := runSet(stdout, o, title)
		if err != nil {
			return err
		}
		sets[i] = rec
		if err := finishSet(stdout, o, rec, fmt.Sprintf("%s-%c", cmp.Or(o.out, "aa"), 'a'+i)); err != nil {
			return err
		}
	}
	regressed, unresolved, err := compareRecords(stdout, sets[0], sets[1])
	if err != nil {
		return err
	}
	mismatched := 0
	for _, oa := range sets[0].Runs {
		if !oa.Trace {
			continue
		}
		for _, ob := range sets[1].Runs {
			if !ob.Trace || ob.Workload != oa.Workload || ob.Seed != oa.Seed {
				continue
			}
			for _, name := range exactCounts {
				if va, vb := oa.Metrics[name].Value, ob.Metrics[name].Value; va != vb {
					fmt.Fprintf(stdout, "count %s on %s differs between the sets: %v vs %v\n", name, oa.Workload, va, vb)
					mismatched++
				}
			}
		}
	}
	if regressed+unresolved+mismatched > 0 {
		return fmt.Errorf("A/A check failed: %d gaps beyond a bound, %d spreads beyond a bound, %d exact counts differ", regressed, unresolved, mismatched)
	}
	fmt.Fprintln(stdout, "A/A check passed: every gap and spread is within its bound")
	return nil
}
