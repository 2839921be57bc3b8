package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/deploy"
	"sbgp/internal/policy"
	"sbgp/internal/runner"
	"sbgp/internal/topogen"
)

// TestBaselineMemo pins the memo's per-plan contract: the word format
// (an empty slot is distinguishable from a stored (0, 0), 31-bit counts
// round-trip, a pair beyond the slice is silently not memoized); a plan
// that is only prepared, laid out, cut into units and used to reduce —
// everything a coordinator does with it — never allocates one; the
// first RunShards allocates min(|M|·|D|, maxMemoPairs) slots; and later
// runs keep the same memo, entries included.
func TestBaselineMemo(t *testing.T) {
	m := make(baselineMemo, 4)
	if _, _, ok := m.load(1); ok {
		t.Fatal("fresh memo reports a stored pair")
	}
	const top = 1<<31 - 1
	m.store(1, 0, 0)
	m.store(2, top-1, top)
	if m.store(9, 5, 6) {
		t.Error("a store beyond the memo's length reports the pair memoized")
	}
	for _, c := range []struct {
		pair, lo, hi int
		ok           bool
	}{{0, 0, 0, false}, {1, 0, 0, true}, {2, top - 1, top, true}, {9, 0, 0, false}} {
		if lo, hi, ok := m.load(c.pair); lo != c.lo || hi != c.hi || ok != c.ok {
			t.Errorf("load(%d) = (%d, %d, %v), want (%d, %d, %v)", c.pair, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}

	ctx := context.Background()
	g, _ := topogen.MustGenerate(topogen.Params{N: 400, Seed: 3})
	all := runner.AllASes(g.N())
	grid := func(pairs int) *Grid {
		return &Grid{Attackers: all[:pairs], Destinations: all[:pairs], Workers: 1}
	}
	// The coordinator's use of a plan: layout, units, and the reduction
	// of partials some other plan computed.
	pl, worker := mustPrepare(grid(5), g), mustPrepare(grid(5), g)
	l := pl.Layout(7)
	var partials []*ShardPartial
	err := worker.EvaluateShardRange(ctx, l, ShardRange{End: l.Shards}, RangeOptions{
		Sink: func(p *ShardPartial) error { partials = append(partials, p); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	pl.Units(l)
	if _, err := pl.Merge(l, partials); err != nil {
		t.Fatal(err)
	}
	if pl.memo != nil {
		t.Fatalf("a plan that was never evaluated holds a %d-slot memo", len(pl.memo))
	}
	if len(worker.memo) != 25 {
		t.Fatalf("a 5×5 plan's memo has %d slots after an evaluation, want 25", len(worker.memo))
	}

	// A RunShards over no shards allocates the memo and runs nothing.
	if err := pl.RunShards(ctx, l, nil, RunOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if len(pl.memo) != 25 {
		t.Fatalf("memo has %d slots, want 25", len(pl.memo))
	}
	first := &pl.memo[0]
	pl.memo.store(3, 7, 8)
	if err := pl.RunShards(ctx, l, []ShardRange{{Start: 0, End: 1}}, RunOptions{}, func(*ShardPartial) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := pl.memo.load(3); &pl.memo[0] != first || lo != 7 || hi != 8 || !ok {
		t.Error("a second RunShards replaced or cleared the plan's memo")
	}

	big := mustPrepare(grid(300), g) // 90 000 pairs
	if err := big.RunShards(ctx, big.Layout(0), nil, RunOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(big.memo); got != maxMemoPairs {
		t.Errorf("memo for 90000 pairs has %d slots, want the bound %d", got, maxMemoPairs)
	}
}

// TestBaselineMemoSharedByWorkers hammers one memo from eight
// goroutines — bare loads and stores first, then whole evaluations of one
// fresh plan started together, so the memo's allocation itself is raced
// for, and whose every (attacker, destination) pair is reached by
// several workers at once — and is meaningful under -race: the memo is
// the one piece of evaluation state workers share without the commit
// mutex. Writers of a slot all store the same value, so every result
// must match the oracle and the collapse must still fire.
func TestBaselineMemoSharedByWorkers(t *testing.T) {
	const workers, pairs = 8, 16
	m := make(baselineMemo, pairs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				pair := (i + w) % pairs
				if lo, hi, ok := m.load(pair); ok && (lo != pair || hi != 2*pair) {
					t.Errorf("pair %d reads (%d, %d), every writer stored (%d, %d)", pair, lo, hi, pair, 2*pair)
					return
				}
				m.store(pair, pair, 2*pair)
			}
		}()
	}
	wg.Wait()

	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 17})
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 6, 8)
	grid := func(w int) *Grid {
		// The identity order over a rollout axis: every cell is a chain
		// head, the model axis is outermost in each deployment's block, so
		// workers on different strips ask for the same pairs all the time.
		return &Grid{Deployments: rolloutDeployments(g, 5), Attackers: M, Destinations: D, Incremental: IncrementalOff, Workers: w}
	}
	o := newOracle(grid(1), g)
	for rep := 0; rep < 4; rep++ {
		pl := mustPrepare(grid(workers), g)
		start := make(chan struct{})
		results := make([]*Result, 3)
		errs := make([]error, len(results))
		walks := make([]walkCount, len(results))
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var st ShardStats
				<-start
				results[i], errs[i] = pl.EvaluateSharded(context.Background(), ShardOptions{ShardSize: 5}, RunOptions{Stats: &st})
				walks[i] = walkOf(st)
			}()
		}
		close(start)
		wg.Wait()
		runs, cells := 0, 0
		for i, res := range results {
			o.check(t, res, errs[i])
			runs, cells = runs+walks[i].runs, cells+walks[i].cells
		}
		if runs >= cells {
			t.Fatalf("rep %d: %d engine runs for %d cells: the memo never served a cell", rep, runs, cells)
		}
	}
}

// headlineShapedGrid is the benchmark's headline job in miniature: the
// baseline plus four deployments named after the standard four — the
// Tier 1+2 rollout, it plus the content providers, Tier 2 alone (a
// removal from either), every non-stub — over the job's 6×6 strided
// pairs, at one worker.
func headlineShapedGrid(g *asgraph.Graph, meta *topogen.Meta) *Grid {
	tiers := asgraph.Classify(g, meta.CPs, nil)
	deployments := []Deployment{{Name: "baseline"}}
	for _, d := range []struct {
		name string
		spec deploy.Spec
	}{
		{"t1t2", deploy.Spec{NumTier1: 13, NumTier2: 12, IncludeStubs: true}},
		{"t1t2cp", deploy.Spec{NumTier1: 13, NumTier2: 12, CPs: meta.CPs, IncludeStubs: true}},
		{"t2", deploy.Spec{NumTier2: 12, IncludeStubs: true}},
		{"nonstubs", deploy.Spec{AllNonStubs: true}},
	} {
		deployments = append(deployments, Deployment{Name: d.name, Dep: deploy.Build(g, tiers, d.spec)})
	}
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 6, 6)
	return &Grid{Deployments: deployments, Attackers: M, Destinations: D, Workers: 1}
}

// leaseRanges groups units into the ranges a coordinator leasing about
// target shards at a time grants: whole units, cut at the last unit
// boundary within target shards of the range's start.
func leaseRanges(units []ShardRange, target int) []ShardRange {
	var leases []ShardRange
	for i := 0; i < len(units); {
		r := units[i]
		for i++; i < len(units) && units[i].End-r.Start <= target; i++ {
			r.End = units[i].End
		}
		leases = append(leases, r)
	}
	return leases
}

// TestLeaseRangesShareThePlanMemo is a dist worker's job in miniature: a
// headline-shaped grid at shard size 16, evaluated as one range and as
// unit-aligned four-shard leases (eleven, as on dist-2w) through
// EvaluateShardRange. The baseline memo belongs to the plan, so a worker
// that serves every lease from one plan makes exactly the engine calls
// one range makes. Two workers with a plan each, alternating leases,
// miss each pair's memo slot at most once more — on the second plan's
// first head of the pair, which then also runs the free steps behind it
// that a served head defers; this schedule leads with the baseline's
// chain, and the total stays within one call per free pair.
// A memo per RunShards call (before PR 25) re-runs the baselines of
// every lease: 476 engine calls against one range's 365 here. All three
// arms merge to the oracle's counts.
func TestLeaseRangesShareThePlanMemo(t *testing.T) {
	ctx := context.Background()
	g, meta := topogen.MustGenerate(topogen.Params{N: 400, Seed: 3})
	grid := headlineShapedGrid(g, meta)
	const size = 16
	one := mustPrepare(grid, g)
	l := one.Layout(size)
	// What the leases share is the baseline memo: the schedule must lead
	// with the baseline's chain and walk at least one chain after it,
	// whose security-free heads read the slots that chain filled.
	if chains := one.sched.plan.chains; len(chains) < 2 || grid.Deployments[chains[0][0].si].Dep != nil {
		t.Fatalf("schedule %v does not lead with the baseline's chain and walk another after it: the leases share no memo",
			chainNames(grid.Deployments, one.sched.plan))
	}
	leases := leaseRanges(one.Units(l), 4)
	if len(leases) < 6 {
		t.Fatalf("%d leases: too few to alternate", len(leases))
	}

	// evaluate runs the ranges in order, range i on plans[i%len(plans)],
	// each plan with a pool of its own released after every range as a
	// dist worker releases its pool after every lease; it checks the
	// merged result against the oracle and returns the walk of all
	// ranges together.
	o := newOracle(grid, g)
	evaluate := func(plans []*Plan, ranges []ShardRange) walkCount {
		pools := make([]*EnginePool, len(plans))
		for i := range pools {
			pools[i] = NewEnginePool()
		}
		var partials []*ShardPartial
		var st ShardStats
		for i, r := range ranges {
			k := i % len(plans)
			err := plans[k].EvaluateShardRange(ctx, l, r, RangeOptions{
				Pool:  pools[k],
				Stats: &st,
				Sink:  func(p *ShardPartial) error { partials = append(partials, p); return nil },
			})
			pools[k].Release()
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := one.Merge(l, partials)
		o.check(t, res, err)
		return walkOf(st)
	}
	ref := evaluate([]*Plan{one}, []ShardRange{{End: l.Shards}})
	if ref.runs >= ref.cells {
		t.Fatalf("one range made %d engine runs for %d cells: the collapse did not fire", ref.runs, ref.cells)
	}
	valid := 0
	for _, m := range grid.Attackers {
		for _, d := range grid.Destinations {
			if m != d {
				valid++ // the baseline cell of every valid pair is security-free
			}
		}
	}

	for _, arm := range []struct {
		name  string
		plans []*Plan
	}{
		{"leases-one-plan", []*Plan{mustPrepare(grid, g)}},
		{"leases-two-plans", []*Plan{mustPrepare(grid, g), mustPrepare(grid, g)}},
	} {
		w := evaluate(arm.plans, leases)
		t.Logf("%s: %d leases, %d engine runs for %d cells (one range: %d runs)", arm.name, len(leases), w.runs, w.cells, ref.runs)
		if w.cells != ref.cells {
			t.Errorf("%s: walked %d cells, one range walks %d", arm.name, w.cells, ref.cells)
		}
		if bound := ref.runs + (len(arm.plans)-1)*valid; w.runs > bound || len(arm.plans) == 1 && w.runs != bound {
			t.Errorf("%s: %d engine runs; want one range's %d exactly on one plan, plus at most one per free pair (%d) on two",
				arm.name, w.runs, ref.runs, valid)
		}
	}
}

// TestResumeSharesThePlanMemo: a run cancelled from its sink leaves the
// plan's memo holding only entries of complete runs, so the remainder,
// resumed on the same plan from the run's checkpoint, lands on the golden
// bytes and needs fewer engine runs than the same remainder on a freshly
// prepared plan.
func TestResumeSharesThePlanMemo(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_nested.json"))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	const size, cancelAfter = 7, 60
	pl := mustPrepare(nestedGrid(g, 1, IncrementalAuto), g)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "same.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	completed := 0
	_, err = pl.EvaluateSharded(ctx, ShardOptions{
		ShardSize:  size,
		Checkpoint: ckpt,
		Sink: func(*ShardPartial) error {
			if completed++; completed == cancelAfter {
				cancel()
			}
			return nil
		},
	}, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	// The fresh plan resumes from an identical copy of the checkpoint.
	records, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.ckpt")
	if err := os.WriteFile(fresh, records, 0o644); err != nil {
		t.Fatal(err)
	}

	resume := func(pl *Plan, path string) walkCount {
		var st ShardStats
		res, err := pl.EvaluateSharded(context.Background(), ShardOptions{ShardSize: size, Checkpoint: path, Resume: true}, RunOptions{Stats: &st})
		if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
			t.Errorf("remainder resumed from %s diverges from the golden bytes", filepath.Base(path))
		}
		return walkOf(st)
	}
	same := resume(pl, ckpt)
	other := resume(mustPrepare(nestedGrid(g, 1, IncrementalAuto), g), fresh)
	t.Logf("remainder: %d cells; %d engine runs on the cancelled run's plan, %d on a fresh one", same.cells, same.runs, other.runs)
	if same.cells != other.cells || same.cells == 0 {
		t.Fatalf("the remainders walked %d and %d cells, want the same non-zero count", same.cells, other.cells)
	}
	if same.runs >= other.runs {
		t.Errorf("the remainder on the cancelled run's plan made %d engine runs, a fresh plan %d: the memo did not survive the cancellation",
			same.runs, other.runs)
	}
}

// memoStats evaluates pl at shard size 7 — through pool, if not nil,
// released afterwards as a service releases it after every job — and
// returns its result and counters.
func memoStats(t *testing.T, pl *Plan, pool *EnginePool) (*Result, ShardStats) {
	t.Helper()
	var st ShardStats
	res, err := pl.EvaluateSharded(context.Background(), ShardOptions{ShardSize: 7}, RunOptions{Pool: pool, Stats: &st})
	if pool != nil {
		pool.Release()
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// TestPoolSharesWarmMemo: a plan whose first evaluation runs on a pool
// that already evaluated a plan with its key — the same graph object, LP,
// attack and pairs, here under other deployments and models — takes over
// that plan's baseline memo. It fills no slot, every free head it walks is
// a hit (as many as the same plan walks on a memo of its own once warm),
// and its bytes are the golden ones.
func TestPoolSharesWarmMemo(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_nested.json"))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	first := goldenGrid(g, 1, nil) // baseline, nonstubs, evens; same pairs as nestedGrid
	first.Models = []policy.Model{policy.Sec2nd}

	// The free heads a warm memo serves: a plan's second evaluation.
	own := mustPrepare(nestedGrid(g, 1, IncrementalAuto), g)
	memoStats(t, own, nil)
	_, warm := memoStats(t, own, nil)

	pool := NewEnginePool()
	if _, st := memoStats(t, mustPrepare(first, g), pool); st.MemoFills == 0 {
		t.Fatal("the first plan filled no memo slot")
	}
	res, st := memoStats(t, mustPrepare(nestedGrid(g, 1, IncrementalAuto), g), pool)
	if got := resultJSON(t, res, nil); !bytes.Equal(got, want) {
		t.Error("the plan that took over a warm memo diverges from the golden bytes")
	}
	if st.MemoFills != 0 || st.MemoHits != warm.MemoHits || warm.MemoHits == 0 {
		t.Errorf("second plan: %d memo hits and %d fills, want %d hits (its free heads) and no fill",
			st.MemoHits, st.MemoFills, warm.MemoHits)
	}
}

// customOneHop seeds exactly like core.OneHopHijack and takes its name,
// but is not a built-in strategy, so no pool shares its memo.
type customOneHop struct{}

func (customOneHop) Name() string { return "one-hop" }
func (customOneHop) Seed(s *core.Seeder) {
	s.OriginateDest()
	s.AnnounceBogus(1)
}

// TestPoolMemoKey: a pool hands a plan an earlier plan's memo only when
// every part of the key matches. The probe is one model over the
// baseline alone — one free cell per pair — so its hits can only come
// from a memo filled before it: all valid pairs on a match, none
// otherwise, and its counts match the oracle either way (pad-2, which
// the oracle does not run, is held to its hits and fills alone).
func TestPoolMemoKey(t *testing.T) {
	g, meta := topogen.MustGenerate(topogen.Params{N: 300, Seed: 5})
	twin, _ := topogen.MustGenerate(topogen.Params{N: 300, Seed: 5})
	ixp, _ := asgraph.AugmentIXP(g, meta.IXPs)
	M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 5, 6)
	reversed := slices.Clone(M)
	slices.Reverse(reversed)
	valid := validCells(&Grid{Attackers: M, Destinations: D}, 1)
	fill := &Grid{Attackers: M, Destinations: D, Workers: 1} // every model, every pair
	for _, tc := range []struct {
		name   string
		g      *asgraph.Graph
		fill   core.Attack
		probe  func(gr *Grid)
		shares bool
	}{
		{"same key", g, nil, func(*Grid) {}, true},
		{"the default attack named", g, nil, func(gr *Grid) { gr.Attack = core.OneHopHijack{} }, true},
		{"pad-2 twice", g, core.PathPadding{Hops: 2}, func(gr *Grid) { gr.Attack = core.PathPadding{Hops: 2} }, true},
		{"equal graph built separately", twin, nil, func(*Grid) {}, false},
		{"IXP twin", ixp, nil, func(*Grid) {}, false},
		{"other LP", g, nil, func(gr *Grid) { gr.LP = policy.LP2 }, false},
		{"pad-2 against one-hop", g, core.PathPadding{Hops: 2}, func(gr *Grid) { gr.Attack = nil }, false},
		{"pairs in another order", g, nil, func(gr *Grid) { gr.Attackers = reversed }, false},
		{"custom attack named one-hop", g, nil, func(gr *Grid) { gr.Attack = customOneHop{} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewEnginePool()
			f := *fill
			f.Attack = tc.fill
			memoStats(t, mustPrepare(&f, g), pool)
			probe := &Grid{Models: []policy.Model{policy.Sec3rd}, Attackers: M, Destinations: D, Attack: tc.fill, Workers: 1}
			tc.probe(probe)
			res, st := memoStats(t, mustPrepare(probe, tc.g), pool)
			if probe.Attack == nil || probe.Attack.Name() == "one-hop" {
				newOracle(probe, tc.g).check(t, res, nil)
			}
			wantHits, wantFills := 0, valid
			if tc.shares {
				wantHits, wantFills = valid, 0
			}
			if st.MemoHits != wantHits || st.MemoFills != wantFills {
				t.Errorf("probe: %d memo hits and %d fills, want %d and %d", st.MemoHits, st.MemoFills, wantHits, wantFills)
			}
		})
	}

	// The pool keeps maxWarmMemos memos, least recently used first out:
	// key 0, registered first but hit again, outlives key 1 when a ninth
	// key arrives.
	pool := NewEnginePool()
	attackers := asgraph.NonStubs(g)
	probe := func(i int) ShardStats {
		gr := &Grid{Models: []policy.Model{policy.Sec3rd}, Attackers: attackers[i : i+1], Destinations: D, Workers: 1}
		_, st := memoStats(t, mustPrepare(gr, g), pool)
		return st
	}
	for i := 0; i < maxWarmMemos; i++ {
		probe(i)
	}
	if st := probe(0); st.MemoHits == 0 {
		t.Fatal("a memo registered eight keys ago was not kept")
	}
	probe(maxWarmMemos)
	if len(pool.memos) != maxWarmMemos {
		t.Errorf("pool keeps %d memos, want %d", len(pool.memos), maxWarmMemos)
	}
	if st := probe(0); st.MemoHits == 0 {
		t.Error("the recently hit memo was evicted")
	}
	if st := probe(1); st.MemoHits != 0 {
		t.Errorf("the least recently used memo served %d hits after its eviction", st.MemoHits)
	}
}

// TestPoolMemoOutlivesNoGraph: a pool holds its memos' graphs weakly.
// Once a graph is collected, a same-shape graph built later — perhaps at
// the very address — finds no memo, and registering its own drops the
// dead entry.
func TestPoolMemoOutlivesNoGraph(t *testing.T) {
	pool := NewEnginePool()
	params := topogen.Params{N: 200, Seed: 29}
	grid := func(g *asgraph.Graph) *Grid {
		M, D := runner.SamplePairs(asgraph.NonStubs(g), runner.AllASes(g.N()), 4, 5)
		return &Grid{Models: []policy.Model{policy.Sec3rd}, Attackers: M, Destinations: D, Workers: 1}
	}
	// fill evaluates a plan on a graph of its own, which nothing but the
	// pool's entry (weakly) refers to once it returns.
	fill := func() weak.Pointer[asgraph.Graph] {
		g, _ := topogen.MustGenerate(params)
		if _, st := memoStats(t, mustPrepare(grid(g), g), pool); st.MemoFills == 0 {
			t.Fatal("the first graph's plan filled no memo slot")
		}
		return weak.Make(g)
	}
	dead := fill()
	for i := 0; dead.Value() != nil; i++ {
		if i == 100 {
			t.Fatal("the first graph is never collected: something keeps it alive")
		}
		runtime.GC()
	}
	g, _ := topogen.MustGenerate(params)
	if _, st := memoStats(t, mustPrepare(grid(g), g), pool); st.MemoHits != 0 {
		t.Errorf("a graph built after the first was collected found its memo: %d hits", st.MemoHits)
	}
	if len(pool.memos) != 1 || pool.memos[0].g.Value() != g {
		t.Errorf("pool keeps %d memos after a dead graph's entry, want only the live one", len(pool.memos))
	}
}

// TestPoolMemoConcurrentPlans evaluates two plans with one key on one
// pool at the same time, each with two workers, so the memo's
// registration and its slots are raced for: meaningful under -race, and
// both results must match the oracle.
func TestPoolMemoConcurrentPlans(t *testing.T) {
	g, _ := topogen.MustGenerate(topogen.Params{N: 200, Seed: 17})
	grids := []*Grid{goldenGrid(g, 2, nil), nestedGrid(g, 2, IncrementalAuto)}
	oracles := []*oracle{newOracle(grids[0], g), newOracle(grids[1], g)}
	for rep := 0; rep < 3; rep++ {
		pool := NewEnginePool()
		var wg sync.WaitGroup
		got := make([]*Result, len(grids))
		errs := make([]error, len(grids))
		start := make(chan struct{})
		for i, gr := range grids {
			pl := mustPrepare(gr, g)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i], errs[i] = pl.EvaluateSharded(context.Background(), ShardOptions{ShardSize: 5}, RunOptions{Pool: pool})
			}()
		}
		close(start)
		wg.Wait()
		pool.Release()
		for i, o := range oracles {
			o.check(t, got[i], errs[i])
		}
		if len(pool.memos) != 1 {
			t.Fatalf("rep %d: two plans with one key registered %d memos", rep, len(pool.memos))
		}
	}
}
