package topogen

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkGenerate is the zoom lens for the ladder rung
// topogen.generate_ms: one default-parameter Generate, cycling over 40
// seeds, at 4000 ASes (the benchmark workloads' size) and at 40 000 (the
// paper's scale, which no workload generates). Beside time and
// allocations it reports retained-B/graph, the heap one generated graph
// keeps live after a GC — the figure a cache of warm topologies is sized
// from, and one the ladder does not read.
func BenchmarkGenerate(b *testing.B) {
	for _, n := range []int{4000, 40000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Generate(Params{N: n, Seed: int64(1 + i%40)}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(retainedBytes(n)), "retained-B/graph")
		})
	}
}

// retainedBytes is the live heap one n-AS graph holds once its Meta and
// the generator's scratch are garbage.
func retainedBytes(n int) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, _, err := Generate(Params{N: n, Seed: 1})
	if err != nil {
		panic(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	return after.HeapAlloc - before.HeapAlloc
}
