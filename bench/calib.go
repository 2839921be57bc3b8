package main

import "time"

// The reference box shares its host, and its speed moves in spells —
// some of seconds, some longer than a run: two sets of runs of the same
// code, twenty minutes apart, differed by 10–25% in every time metric
// (README, "Noise"). No statistic within a run removes the long ones, so
// the harness times a fixed kernel of its own right after every job and
// reports every time as the ratio of the two, scaled to seconds by the
// kernel's time on the reference box at rest:
//
//	reported s = wall s ÷ adjacent kernel s × calibReference
//
// The kernel is a breadth-first search from 40 sources over a fixed
// pseudo-random 4000-node digraph — the engines' resource mix (a few
// hundred KB of int32 adjacency and per-node state, data-dependent
// branches) without one line of the repository's code, so no change to
// the system can speed it up. It allocates nothing, so it neither
// triggers nor measures the garbage collector. Measured against
// `headline`-shaped jobs over twelve noisy minutes (15 s windows), the
// window medians of raw job time varied by 12.0% (coefficient of
// variation) and the window medians of the paired ratio by 1.0%; a
// pure ALU loop did not track the spells at all (correlation 0.6).
type calibrator struct {
	off, adj    []int32
	dist, queue []int32
}

const (
	calibNodes   = 4000
	calibDegree  = 7
	calibSources = 40
	// calibReference is the kernel's time on the reference box at rest.
	// It only fixes the scale: at rest there, reported seconds are wall
	// seconds.
	calibReference = 0.0037
)

func newCalibrator() *calibrator {
	c := &calibrator{
		off:   make([]int32, calibNodes+1),
		adj:   make([]int32, 0, calibNodes*calibDegree),
		dist:  make([]int32, calibNodes),
		queue: make([]int32, 0, calibNodes),
	}
	x := uint64(88172645463325252) // xorshift64: the graph is the same in every run
	for v := 0; v < calibNodes; v++ {
		for k := 0; k < calibDegree; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.adj = append(c.adj, int32(x%calibNodes))
		}
		c.off[v+1] = int32(len(c.adj))
	}
	return c
}

// run executes the kernel once and returns its wall seconds.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	reached := 0
	for s := 0; s < calibSources; s++ {
		for i := range c.dist {
			c.dist[i] = -1
		}
		q := c.queue[:0]
		src := int32(s * 61 % calibNodes)
		c.dist[src] = 0
		q = append(q, src)
		for h := 0; h < len(q); h++ {
			v := q[h]
			for _, w := range c.adj[c.off[v]:c.off[v+1]] {
				if c.dist[w] < 0 {
					c.dist[w] = c.dist[v] + 1
					q = append(q, w)
				}
			}
		}
		reached += len(q)
	}
	if reached == 0 {
		panic("calibration kernel reached nothing")
	}
	return time.Since(t0).Seconds()
}

// atReference converts wall seconds to reference-speed seconds given
// the kernel's wall seconds measured next to them.
func atReference(wall, kernel float64) float64 { return wall / kernel * calibReference }
