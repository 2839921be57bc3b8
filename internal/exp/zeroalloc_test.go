package exp

import (
	"testing"

	"sbgp"
	"sbgp/internal/policy"
)

// TestBaselineZeroAllocs pins the headline arena contract: after the
// first call has built the cached evaluation (engines, schedule,
// accumulator, Result), repeated Baseline calls on the same workload
// allocate nothing. This is the exact loop BenchmarkBaselineHappiness
// times, so allocs/op in the committed baseline stays at zero.
func TestBaselineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; covered by the non-race CI job")
	}
	w := scenarioWorkload(20, sbgp.WithGeneratedTopology(200, 3), sbgp.WithPairSampling(6, 6))
	warm := w.Baseline(policy.Sec3rd, policy.Standard)
	allocs := testing.AllocsPerRun(10, func() {
		m := w.Baseline(policy.Sec3rd, policy.Standard)
		if m != warm {
			t.Fatalf("baseline drifted across reuse: %v != %v", m, warm)
		}
	})
	if allocs != 0 {
		t.Errorf("Baseline allocated %.0f times per call in steady state, want 0", allocs)
	}
}
