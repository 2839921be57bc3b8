package sweep

// The package's one equivalence matrix. Every schedule is the same loop
// over the same walk, so comparing schedules with each other would let a
// bug in evaluateRange move "want" and "got" together. The matrix
// anchors every evaluation on a reference that shares neither:
// runner.EvalMetricPerDest — a fresh engine per worker and a plain loop
// over (destination, attacker) — on generated inputs, and the committed
// golden files on the fixture grids.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// TestHierarchyDigest pins topogen.Hierarchy's seeded graphs: every AS's
// provider, customer and peer lists, for seeds 0–49 at four sizes, hash
// to one digest, so the oracle's and the pool's inputs stay fixed.
func TestHierarchyDigest(t *testing.T) {
	h := sha256.New()
	for seed := int64(0); seed < 50; seed++ {
		for _, n := range []int{2, 17, 40, 120} {
			g := topogen.Hierarchy(n, rand.New(rand.NewSource(seed)).Intn)
			for v := asgraph.AS(0); int(v) < n; v++ {
				fmt.Fprintln(h, g.Providers(v), g.Customers(v), g.Peers(v))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != "3a90f9da106a3912c861682509a2794156e3322a030066c8a74d0bf0e6e10629" {
		t.Fatalf("seeded hierarchies hash to %s", got)
	}
}

// happyCounts recovers the integer (happy-lo, happy-hi) source counts a
// Metric was divided from. Exact: the quotient came from those integers
// and pairs·sources, so the product is off by far less than one half.
func happyCounts(m runner.Metric, sources int) (lo, hi int) {
	scale := float64(m.Pairs) * float64(sources)
	return int(math.Round(m.Lo * scale)), int(math.Round(m.Hi * scale))
}

// oracle is the reference for a grid under the default attack:
// runner.EvalMetricPerDest for every deployment and model, compared as
// integer happy counts.
type oracle struct {
	gr      Grid // deployments and models defaulted
	sources int
	want    [][policy.NumModels][]runner.Metric // [deployment][model][destination]
}

func newOracle(gr *Grid, g *asgraph.Graph) *oracle {
	o := &oracle{gr: *gr, sources: g.N() - 2}
	if len(o.gr.Deployments) == 0 {
		o.gr.Deployments = []Deployment{{Name: "baseline"}}
	}
	if len(o.gr.Models) == 0 {
		o.gr.Models = policy.Models[:]
	}
	o.want = make([][policy.NumModels][]runner.Metric, len(o.gr.Deployments))
	for si, dp := range o.gr.Deployments {
		for _, model := range o.gr.Models {
			o.want[si][model] = runner.EvalMetricPerDest(g, model, gr.LP, dp.Dep, gr.Attackers, gr.Destinations, 1)
		}
	}
	return o
}

// diff returns the first way res disagrees with the oracle, or "".
func (o *oracle) diff(res *Result) string {
	for si, dp := range o.gr.Deployments {
		for _, model := range o.gr.Models {
			cell := res.Cell(dp.Name, model)
			if cell == nil {
				return fmt.Sprintf("no cell %s/%v", dp.Name, model)
			}
			if o.gr.PerDest == (cell.PerDest == nil) {
				return fmt.Sprintf("%s/%v: per-destination series presence does not follow the grid", dp.Name, model)
			}
			var wantLo, wantHi, wantPairs int
			for di, wm := range o.want[si][model] {
				lo, hi := happyCounts(wm, o.sources)
				wantLo, wantHi, wantPairs = wantLo+lo, wantHi+hi, wantPairs+wm.Pairs
				if cell.PerDest == nil {
					continue
				}
				if gotLo, gotHi := happyCounts(cell.PerDest[di], o.sources); gotLo != lo || gotHi != hi || cell.PerDest[di].Pairs != wm.Pairs {
					return fmt.Sprintf("%s/%v dest %d: counts (%d, %d, %d pairs), oracle (%d, %d, %d pairs)",
						dp.Name, model, di, gotLo, gotHi, cell.PerDest[di].Pairs, lo, hi, wm.Pairs)
				}
			}
			if gotLo, gotHi := happyCounts(cell.Metric, o.sources); gotLo != wantLo || gotHi != wantHi || cell.Metric.Pairs != wantPairs {
				return fmt.Sprintf("%s/%v: counts (%d, %d, %d pairs), oracle (%d, %d, %d pairs)",
					dp.Name, model, gotLo, gotHi, cell.Metric.Pairs, wantLo, wantHi, wantPairs)
			}
		}
	}
	return ""
}

// check fails t unless the evaluation (res, err) agrees with the oracle.
func (o *oracle) check(t *testing.T, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if d := o.diff(res); d != "" {
		t.Error(d)
	}
}

// wantHandoffHits counts, from the schedule alone, the chain
// continuations a fresh evaluation of layout l performs: one per shard
// boundary that cuts a group run of a valid (m ≠ d) pair mid-chain. That
// is the number the walk reported before it knew about security-free
// cells, and a head deferred by the baseline memo must not change it.
func wantHandoffHits(pl *Plan, l *Layout) int {
	s, ax := pl.sched, pl.ax
	hits := 0
	for p := l.ShardSize; p < l.Cells; p += l.ShardSize {
		if s.handoffFree(p) {
			continue
		}
		ci := s.chainAt(p)
		pair := (p - s.blockStart[ci]) / len(s.plan.chains[ci]) % (ax.nd * ax.na)
		if pl.gr.Destinations[pair/ax.na] != pl.gr.Attackers[pair%ax.na] {
			hits++
		}
	}
	return hits
}

// drivers are the five ways a plan becomes a Result: Evaluate; the
// sharded evaluation into a memory-only store; RunShards by hand into a
// store, then Result; a durable checkpoint written, cut to its first
// half and resumed; and two disjoint shard ranges joined by Merge.
var drivers = []string{"Evaluate", "EvaluateSharded", "RunShards", "durable", "Merge"}

// matrix is the tally of one run of the sweep matrix: per property key
// ("check/shape/driver"), the checks made and failed and the first
// failure; per schedule shape, the generated inputs that walked it. A
// few keys ("sliced/shape", "midwalk/shape") only count an event the
// tests require to have happened.
type matrix struct {
	checks, fails map[string]int
	first         map[string]string
	shapes        map[string]map[string]bool // shape → the generated inputs that walked it
	dir           string                     // durable checkpoints
}

func (m *matrix) check(key string, ok bool, format string, args ...any) {
	m.checks[key]++
	if !ok {
		if m.fails[key]++; m.fails[key] == 1 {
			m.first[key] = fmt.Sprintf(format, args...)
		}
	}
}

// sweepMatrix runs the matrix once per test binary. The tests reading it
// each require some properties to have held on every check.
var sweepMatrix = sync.OnceValue(func() *matrix {
	m := &matrix{checks: map[string]int{}, fails: map[string]int{}, first: map[string]string{}, shapes: map[string]map[string]bool{}}
	dir, err := os.MkdirTemp("", "sweep-matrix")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	m.dir = dir
	m.generated()
	m.golden()
	return m
})

// requireMatrix fails t unless every property whose key matches one of
// patterns (path.Match syntax) held on every check, and each pattern's
// keys were checked at least min times in all.
func requireMatrix(t *testing.T, min int, patterns ...string) {
	t.Helper()
	m := sweepMatrix()
	for _, pat := range patterns {
		n := 0
		for _, key := range slices.Sorted(maps.Keys(m.checks)) {
			if ok, _ := path.Match(pat, key); ok {
				n += m.checks[key]
				if m.fails[key] > 0 {
					t.Errorf("%s failed %d of %d checks; the first: %s", key, m.fails[key], m.checks[key], m.first[key])
				}
			}
		}
		if n < min {
			t.Errorf("%s checked %d times, want at least %d", pat, n, min)
		}
	}
}

// generated crosses topogen graphs at several seeds and random small
// hierarchies with four schedule shapes — IncrementalOff, a nested
// rollout, an incomparable forest axis with a duplicate membership, an
// IncrementalAuto axis nothing links — and with worker counts, shard
// sizes (every cell its own shard, shards cutting chains mid-walk, one
// shard holding the grid), PerDest and the five drivers, every count
// held to the oracle. The destination set straddles S on every axis —
// one destination joins Full partway along (and leaves again on the
// forest axis), one joins Simplex, the rest stay outside — so
// security-free and secure cells alternate inside one chain: the
// baseline memo fires, and the oracle, which knows nothing of it, must
// still agree.
func (m *matrix) generated() {
	type input struct {
		name string
		g    *asgraph.Graph
		lp   policy.LocalPref
	}
	var inputs []input
	for seed := int64(1); seed <= 3; seed++ {
		g, _ := topogen.MustGenerate(topogen.Params{N: 150, Seed: seed})
		inputs = append(inputs, input{fmt.Sprintf("topogen-%d", seed), g, policy.Standard})
	}
	for seed := int64(1); seed <= 3; seed++ {
		lp := policy.Standard
		if seed == 2 {
			lp = policy.LP2
		}
		inputs = append(inputs, input{fmt.Sprintf("random-%d", seed), topogen.Hierarchy(40+10*int(seed), rand.New(rand.NewSource(seed)).Intn), lp})
	}
	workerCounts, sizes, perDests := []int{1, 2, 3}, []int{1, 7, 1 << 20}, []bool{false, true}
	if raceEnabled {
		workerCounts, sizes, perDests = []int{1, 3}, []int{7, 1 << 20}, []bool{true}
	}

	for _, in := range inputs {
		g := in.g
		all := runner.AllASes(g.N())
		rng := rand.New(rand.NewSource(int64(g.N())))
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		// Overlapping attacker and destination sets, so m == d cells occur.
		M, D := all[:4], all[2:7]
		members := all[7:]
		set := func(vs []asgraph.AS, more ...asgraph.AS) *core.Deployment {
			full := asgraph.SetOf(g.N(), vs...)
			for _, v := range more {
				full.Add(v)
			}
			return &core.Deployment{Full: full}
		}
		secureD, simplexD := D[0], D[1] // D[2:] never deploy
		axes := []struct {
			name string
			mode IncrementalMode
			deps []Deployment
		}{
			{"off", IncrementalOff, []Deployment{
				{Name: "b", Dep: set(members[:9], secureD)}, {Name: "baseline"}, {Name: "a", Dep: set(members[:3])},
			}},
			{"nested", IncrementalAuto, []Deployment{
				{Name: "baseline"}, {Name: "s3", Dep: set(members[:3])}, {Name: "s6", Dep: set(members[:6], secureD)},
				{Name: "s12", Dep: &core.Deployment{Full: set(members[:10], secureD).Full, Simplex: asgraph.SetOf(g.N(), members[10], members[11], simplexD)}},
			}},
			{"forest", IncrementalAuto, []Deployment{
				{Name: "w0", Dep: set(members[0:6], secureD)},
				{Name: "w3", Dep: &core.Deployment{Full: set(members[3:9], secureD).Full, Simplex: asgraph.SetOf(g.N(), simplexD)}},
				{Name: "baseline"}, {Name: "w6", Dep: set(members[6:12])}, {Name: "w6-again", Dep: set(members[6:12])},
			}},
			{"unlinkable", IncrementalAuto, unlinkableGrid(g, IncrementalAuto).Deployments},
		}
		for _, axis := range axes {
			o := newOracle(&Grid{LP: in.lp, Deployments: axis.deps, Attackers: M, Destinations: D}, g)
			for _, perDest := range perDests {
				o.gr.PerDest = perDest
				one := map[string]oneWorker{}
				for _, workers := range workerCounts {
					pl := mustPrepare(&Grid{
						LP: in.lp, Deployments: axis.deps, Attackers: M, Destinations: D,
						PerDest: perDest, Incremental: axis.mode, Workers: workers,
					}, g)
					shape := "nested"
					switch {
					case pl.sched.identity():
						shape = axis.name
					case removesAny(pl.sched.plan):
						shape = "forest"
					}
					if m.shapes[shape] == nil {
						m.shapes[shape] = map[string]bool{}
					}
					m.shapes[shape][in.name] = true
					where := fmt.Sprintf("%s/%s workers=%d perdest=%v", in.name, axis.name, workers, perDest)
					m.plan(shape, where, pl, workers, sizes, perDest && workers != 2, one, o.diff)
				}
			}
		}
	}
}

// golden sends the golden grids through the same drivers, every result
// byte-identical to its committed file: the four attacks' grid (and the
// one-hop grid again under IncrementalOff) and the nested rollout.
func (m *matrix) golden() {
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	workerCounts, sizes := []int{1, 3}, []int{1, 7, 64, 1 << 20}
	if raceEnabled {
		// The generated inputs give the race detector every driver at
		// one and three workers; here one sliced shard per grid is enough.
		workerCounts, sizes = []int{3}, []int{1 << 20}
	}
	for _, gc := range []struct {
		name, file string
		grid       func(workers int) *Grid
	}{
		{"one-hop", "golden_onehop.json", func(w int) *Grid { return goldenGrid(g, w, nil) }},
		{"none", "golden_none.json", func(w int) *Grid { return goldenGrid(g, w, core.NoAttack{}) }},
		{"pad-3", "golden_pad3.json", func(w int) *Grid { return goldenGrid(g, w, core.PathPadding{Hops: 3}) }},
		{"origin-spoof", "golden_originspoof.json", func(w int) *Grid { return goldenGrid(g, w, core.OriginSpoof{}) }},
		{"identity", "golden_onehop.json", func(w int) *Grid {
			gr := goldenGrid(g, w, nil)
			gr.Incremental = IncrementalOff
			return gr
		}},
		{"nested", "golden_nested.json", func(w int) *Grid { return nestedGrid(g, w, IncrementalAuto) }},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", gc.file))
		if err != nil {
			panic(err)
		}
		diff := func(res *Result) string {
			var got bytes.Buffer
			if err := res.WriteJSON(&got); err != nil {
				return err.Error()
			}
			if !bytes.Equal(got.Bytes(), want) {
				return "result diverges from " + gc.file
			}
			return ""
		}
		one := map[string]oneWorker{}
		for _, workers := range workerCounts {
			pl := mustPrepare(gc.grid(workers), g)
			m.plan("golden-"+gc.name, fmt.Sprintf("%s workers=%d", gc.name, workers), pl, workers, sizes, true, one, diff)
		}
	}
}

// plan runs every driver at every shard size on one prepared plan and
// checks what each cell of the matrix promises: the result (diff); on a
// driver that reports counters, handoff hits equal to the schedule's and
// no miss, every valid cell walked in fewer engine runs, planner fields
// that describe the schedule, no memo fill once the plan's memo is warm,
// and stats (memo and engine counters aside) equal to the one-worker
// run's, as is the durable checkpoint's set of lines. one holds the
// one-worker run's stats and lines by size and driver. Every durable
// shard costs an fsync, so the durable driver runs only where durable is
// set, and never at shard size 1.
func (m *matrix) plan(shape, where string, pl *Plan, workers int, sizes []int, durable bool, one map[string]oneWorker, diff func(*Result) string) {
	deps := len(pl.ax.deps)
	scratchAll := int64(deps) * fromScratchCost(pl.g)
	valid := validCells(&pl.gr, len(pl.ax.models))
	warm := false
	for i, size := range sizes {
		l := pl.Layout(size)
		units := pl.Units(l)
		sliced := len(pl.strips(nil, units, l, workers)) > len(units)
		if sliced {
			m.checks["sliced/"+shape]++
		}
		for _, driver := range drivers {
			if driver == "Evaluate" && i > 0 || driver == "durable" && (!durable || size == 1) {
				continue // Evaluate's shard size is the default, whatever the row's
			}
			key, at := shape+"/"+driver, fmt.Sprintf("%s shard=%d %s", where, size, driver)
			results, st, lines, err := m.drive(shape, driver, at, pl, l, valid, sliced)
			if err != nil {
				m.check("counts/"+key, false, "%s: %v", at, err)
				continue
			}
			for _, res := range results {
				d := diff(res)
				m.check("counts/"+key, d == "", "%s: %s", at, d)
			}
			if st == nil {
				warm = true
				continue
			}
			hits := wantHandoffHits(pl, l)
			m.check("handoff/"+key, st.HandoffHits == hits && st.HandoffMisses == 0,
				"%s: %d handoff hits and %d misses, the schedule implies %d and 0", at, st.HandoffHits, st.HandoffMisses, hits)
			w := walkOf(*st)
			m.check("walk/"+key, w.cells == valid && w.runs < w.cells,
				"%s: walked %d cells in %d engine runs, want all %d valid cells in fewer runs", at, w.cells, w.runs, valid)
			m.check("planner/"+key, st.ChainHeads+st.DeltaEdges == deps && pl.sched.identity() == (st.DeltaEdges == 0) &&
				st.PredictedVolume > 0 && st.PredictedVolume <= scratchAll && (st.PredictedVolume < scratchAll) == (st.DeltaEdges > 0),
				"%s: %d heads, %d delta edges, predicted volume %d for %d deployments (all from scratch: %d)",
				at, st.ChainHeads, st.DeltaEdges, st.PredictedVolume, deps, scratchAll)
			m.check("memo/"+key, !warm || st.MemoFills == 0, "%s: %d memo fills on a memo an earlier run filled", at, st.MemoFills)
			warm = true
			k := fmt.Sprint(size, driver)
			ref, ok := one[k]
			if workers == 1 {
				one[k] = oneWorker{withoutMemo(*st), lines}
			}
			if !ok {
				continue
			}
			m.check("stats/"+key, withoutMemo(*st) == ref.stats, "%s: stats %+v, one worker reported %+v", at, withoutMemo(*st), ref.stats)
			if lines != nil {
				m.check("lines/"+key, slices.Equal(lines, ref.lines), "%s: checkpoint lines differ from the one-worker file", at)
			}
		}
	}
}

// oneWorker is what a one-worker run of a matrix cell reported: its
// stats (memo and engine counters aside) and checkpoint lines.
type oneWorker struct {
	stats ShardStats
	lines []string
}

// drive evaluates pl under layout l with one driver and returns the
// results, the counters of a fresh run (nil for Evaluate, which takes
// none) and, for the durable store, the checkpoint's header and sorted
// record lines. The durable driver then cuts the file to its first half
// and resumes it, returning the fresh and the resumed result: the sink
// must see every shard exactly once, and the walk only the cells the
// kept records do not cover.
func (m *matrix) drive(shape, driver, at string, pl *Plan, l *Layout, valid int, sliced bool) ([]*Result, *ShardStats, []string, error) {
	ctx, st := context.Background(), &ShardStats{}
	switch driver {
	case "Evaluate":
		res, err := pl.Evaluate(ctx)
		return []*Result{res}, nil, nil, err
	case "EvaluateSharded":
		res, err := pl.EvaluateSharded(ctx, ShardOptions{ShardSize: l.ShardSize}, RunOptions{Stats: st})
		return []*Result{res}, st, nil, err
	case "RunShards":
		store, err := OpenCheckpointWriter("", l, false)
		if err == nil {
			err = pl.RunShards(ctx, l, store.Missing(), RunOptions{Stats: st}, func(p *ShardPartial) error {
				_, err := store.Add(p)
				return err
			})
		}
		if err != nil {
			return nil, nil, nil, err
		}
		res, err := pl.Result(store)
		return []*Result{res}, st, nil, err
	case "Merge":
		units := pl.Units(l)
		ranges := []ShardRange{{Start: units[len(units)/2].Start, End: l.Shards}}
		if ranges[0].Start > 0 {
			ranges = append(ranges, ShardRange{End: ranges[0].Start})
		}
		var partials []*ShardPartial
		for _, r := range ranges {
			err := pl.EvaluateShardRange(ctx, l, r, RangeOptions{Stats: st, Sink: func(p *ShardPartial) error {
				partials = append(partials, p)
				return nil
			}})
			if err != nil {
				return nil, nil, nil, err
			}
		}
		res, err := pl.Merge(l, partials)
		return []*Result{res}, st, nil, err
	}
	ckpt := filepath.Join(m.dir, "matrix.ckpt")
	fresh, err := pl.EvaluateSharded(ctx, ShardOptions{ShardSize: l.ShardSize, Checkpoint: ckpt}, RunOptions{Stats: st})
	if err != nil {
		return nil, nil, nil, err
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		return nil, nil, nil, err
	}
	written := bytes.SplitAfter(data, []byte("\n"))
	lines := make([]string, len(written)-1) // the last element is empty
	for i, line := range written[:len(lines)] {
		lines[i] = string(line)
	}
	slices.Sort(lines[1:])
	// Cut to the header plus the first half of the records, as a run
	// killed halfway through leaves it.
	keep, done := l.Shards/2, 0
	for _, line := range written[1 : keep+1] {
		_, p, err := decodeCheckpointLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			return nil, nil, nil, err
		}
		for _, n := range p.Pairs {
			done += n
		}
	}
	if err := os.WriteFile(ckpt, bytes.Join(written[:keep+1], nil), 0o644); err != nil {
		return nil, nil, nil, err
	}
	seen := map[int]int{}
	var rst ShardStats
	res, err := pl.EvaluateSharded(ctx, ShardOptions{ShardSize: l.ShardSize, Checkpoint: ckpt, Resume: true, Sink: func(p *ShardPartial) error {
		seen[p.Shard]++
		return nil
	}}, RunOptions{Stats: &rst})
	if err != nil {
		return nil, nil, nil, err
	}
	once := len(seen) == l.Shards
	for _, n := range seen {
		once = once && n == 1
	}
	key := shape + "/durable"
	m.check("sink/"+key, once, "%s: the resuming sink saw %d distinct shards of %d, not each once", at, len(seen), l.Shards)
	w := walkOf(rst)
	resumed := w.cells == valid-done
	m.check("resume/"+key, resumed, "%s: the resume walked %d cells, want %d (valid %d − checkpointed %d)", at, w.cells, valid-done, valid, done)
	if sliced {
		m.check("resume-sliced/"+key, resumed, "%s: the resume walked %d cells, want %d", at, w.cells, valid-done)
	}
	if rst.HandoffMisses > 0 {
		m.checks["midwalk/"+shape]++ // the cut left a walk half done: its rest restarts from a head
	}
	return []*Result{fresh, res}, st, lines, nil
}

// TestSweepMatchesOracleOnGeneratedInputs is the matrix on generated
// inputs: every property held on every check, and every schedule shape
// walked on most inputs — a planner change that quietly turned the
// forest axes into identity runs would otherwise leave the matrix green
// and toothless.
func TestSweepMatchesOracleOnGeneratedInputs(t *testing.T) {
	requireMatrix(t, 100, "*/off/*", "*/unlinkable/*", "*/nested/*", "*/forest/*")
	for _, shape := range []string{"off", "unlinkable", "nested", "forest"} {
		if n := len(sweepMatrix().shapes[shape]); n < 4 {
			t.Errorf("schedule shape %q walked on %d inputs, want at least 4", shape, n)
		}
	}
}

// TestShardedEquivalence: the sharded evaluation into a memory-only
// store matches the reference at every worker count and shard size.
func TestShardedEquivalence(t *testing.T) { requireMatrix(t, 50, "counts/*/EvaluateSharded") }

// TestSweepDeterministicAcrossWorkerCounts: every driver matches the
// reference at every worker count, with the one-worker run's stats.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	requireMatrix(t, 100, "counts/*/*", "stats/*/*")
}

// TestShardedInterruptResume: a durable checkpoint cut to its first half
// resumes to the reference, walking only the cells its records leave
// out, while the sink sees every shard once — at whole shards, and at
// shards that workers evaluate in slices.
func TestShardedInterruptResume(t *testing.T) {
	t.Run("whole shards", func(t *testing.T) { requireMatrix(t, 50, "resume/*/durable", "sink/*/durable", "counts/*/durable") })
	t.Run("sliced shards", func(t *testing.T) { requireMatrix(t, 10, "resume-sliced/*/durable") })
}

// TestChainMajorInterruptResume: resumes of chain-major layouts cut
// mid-walk, where the gap decides which walks restart from a head.
func TestChainMajorInterruptResume(t *testing.T) {
	requireMatrix(t, 1, "midwalk/nested", "midwalk/forest", "counts/nested/durable", "counts/forest/durable",
		"resume/nested/durable", "resume/forest/durable", "resume/golden-nested/durable")
}

// TestCrossShardHandoffEquivalence: on a fresh run every shard boundary
// that cuts a walk is a handoff hit and none misses, on every driver.
func TestCrossShardHandoffEquivalence(t *testing.T) {
	requireMatrix(t, 100, "handoff/*/*", "counts/nested/*", "counts/forest/*")
}

// TestForestEquivalence: the signed-delta forest matches the reference
// on every driver.
func TestForestEquivalence(t *testing.T) { requireMatrix(t, 50, "counts/forest/*") }

// TestForestDistributedEquivalence: disjoint ranges of a forest layout,
// merged, match the reference.
func TestForestDistributedEquivalence(t *testing.T) {
	requireMatrix(t, 10, "counts/forest/Merge", "handoff/forest/Merge")
}

// TestForestHandoffAndStats: a forest run's handoffs are the schedule's,
// and its planner counters describe a linked forest that beats running
// every deployment from scratch.
func TestForestHandoffAndStats(t *testing.T) {
	requireMatrix(t, 10, "handoff/forest/*", "planner/forest/*", "stats/forest/*", "counts/forest/*")
}

// TestIncrementalEquivalenceMixedChains: mixed axes — nested steps,
// simplex variants, incomparable windows and a duplicate membership —
// match the reference.
func TestIncrementalEquivalenceMixedChains(t *testing.T) {
	requireMatrix(t, 50, "counts/nested/*", "counts/forest/*")
}

// TestShardRangeMergeEquivalence: two disjoint shard ranges, merged,
// match the reference with every handoff inside a range hit.
func TestShardRangeMergeEquivalence(t *testing.T) {
	requireMatrix(t, 50, "counts/*/Merge", "handoff/*/Merge")
}

// TestCheckpointWriterResumeInterop: the one store's files, written by a
// fresh run and cut, resume to the reference; RunShards into a store and
// Result land there too.
func TestCheckpointWriterResumeInterop(t *testing.T) {
	requireMatrix(t, 20, "counts/*/durable", "lines/*/durable", "counts/*/RunShards")
}

// TestOnePlanServesEveryDriver: one prepared plan of each golden grid
// serves every driver, at every shard size, on the golden bytes.
func TestOnePlanServesEveryDriver(t *testing.T) {
	for _, name := range []string{"one-hop", "none", "pad-3", "origin-spoof", "nested"} {
		t.Run(name, func(t *testing.T) {
			for _, d := range drivers {
				requireMatrix(t, 1, "counts/golden-"+name+"/"+d)
			}
		})
	}
}

// TestSlicedShardsEquivalence: strip dispatch slices units on every
// schedule shape, golden grids included, and slicing changes neither the
// stats nor the durable checkpoint's lines of the one-worker run.
func TestSlicedShardsEquivalence(t *testing.T) {
	for _, tc := range []struct{ name, shape, golden string }{
		{"identity", "off", "golden-identity"}, {"nested", "nested", "golden-nested"}, {"forest", "forest", "forest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireMatrix(t, 1, "sliced/"+tc.shape, "sliced/"+tc.golden, "stats/"+tc.shape+"/*", "lines/"+tc.shape+"/durable",
				"counts/"+tc.shape+"/*", "counts/"+tc.golden+"/*")
		})
	}
}
