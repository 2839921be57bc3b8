package sweep

import (
	"encoding/json"
	"fmt"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/core"
	"sbgp/internal/policy"
)

// FuzzCheckpointRecord throws arbitrary bytes at the checkpoint-line
// decoder. It must never panic; anything it accepts must satisfy the
// decoder's documented invariants and re-encode/re-decode to the same
// record (so resume can trust every accepted line).
func FuzzCheckpointRecord(f *testing.F) {
	seeds := []string{
		`{"v":1,"kind":"header","fingerprint":"0123456789abcdef","cells":288,"shard_size":13,"shards":23}`,
		`{"kind":"shard","shard":0,"tasks":[0,1,2],"lo":[781,1527,209],"hi":[980,1705,247],"pairs":[5,6,1]}`,
		`{"kind":"shard","shard":7}`,
		`{"kind":"shard","shard":-1}`,
		`{"kind":"header","v":2}`,
		`{"kind":"shard","shard":1,"tasks":[2,1],"lo":[1,1],"hi":[1,1],"pairs":[1,1]}`,
		`{"kind":"shard","shard":1,"tasks":[1],"lo":[9],"hi":[1],"pairs":[1]}`,
		`{}`,
		`null`,
		`garbage`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		hdr, p, err := decodeCheckpointLine(line)
		if err != nil {
			return
		}
		switch {
		case hdr != nil:
			if hdr.V != checkpointVersion || len(hdr.Fingerprint) != 16 ||
				hdr.Cells <= 0 || hdr.ShardSize <= 0 || hdr.Shards != numShards(hdr.Cells, hdr.ShardSize) {
				t.Fatalf("accepted header violates invariants: %+v", hdr)
			}
			reencoded, err := json.Marshal(hdr)
			if err != nil {
				t.Fatal(err)
			}
			hdr2, _, err := decodeCheckpointLine(reencoded)
			if err != nil || hdr2 == nil || *hdr2 != *hdr {
				t.Fatalf("header does not round-trip: %s -> %+v (%v)", reencoded, hdr2, err)
			}
		case p != nil:
			if p.Shard < 0 {
				t.Fatalf("accepted negative shard index %d", p.Shard)
			}
			n := len(p.Tasks)
			if len(p.Lo) != n || len(p.Hi) != n || len(p.Pairs) != n {
				t.Fatalf("accepted ragged shard record: %+v", p)
			}
			for i := 0; i < n; i++ {
				if p.Tasks[i] < 0 || (i > 0 && p.Tasks[i] <= p.Tasks[i-1]) ||
					p.Pairs[i] <= 0 || p.Lo[i] < 0 || p.Hi[i] < p.Lo[i] {
					t.Fatalf("accepted shard record violates invariants at %d: %+v", i, p)
				}
			}
			reencoded, err := json.Marshal(shardRecord{Kind: recordShard, ShardPartial: p})
			if err != nil {
				t.Fatal(err)
			}
			if _, p2, err := decodeCheckpointLine(reencoded); err != nil || p2 == nil || p2.Shard != p.Shard {
				t.Fatalf("shard record does not round-trip: %s (%v)", reencoded, err)
			}
		default:
			t.Fatal("decode returned neither header nor shard without error")
		}
	})
}

// FuzzChainPlan throws arbitrary deployment axes — random member sets,
// duplicates, empty deployments, simplex variants, nested prefixes and
// incomparable windows alike — at the planner. Its plan must satisfy
// the planner's properties (checkPlanProperties: every deployment in
// exactly one chain position, exact signed walk-predecessor deltas,
// headless tree roots, every walk step and tree edge priced strictly
// below a from-scratch head, a price no higher than the singleton
// plan's, and on a superset chain the shortcut's walks equal to the
// forest's). That plan and the singleton plan of the same axis must lay
// out as a schedule the loop can cut anywhere (checkScheduleLayout).
func FuzzChainPlan(f *testing.F) {
	// Each 7-byte chunk is one deployment: 6 bytes of Full membership
	// bitmask over the 48-AS planner test graph, 1 byte of Simplex mask
	// over ASes 40..47 (kept disjoint from Full).
	f.Add([]byte{})                                                                    // empty axis
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})                                                 // single baseline
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0})                            // nested pair
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0})                           // incomparable pair
	f.Add([]byte{5, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 0, 0, 1})                            // duplicates with simplex
	f.Add([]byte{255, 1, 0, 0, 0, 0, 0, 254, 3, 0, 0, 0, 0, 0, 252, 7, 0, 0, 0, 0, 0}) // sliding windows
	g := planTestGraph(48)
	f.Fuzz(func(t *testing.T, data []byte) {
		const chunk = 7
		ndeps := len(data) / chunk
		if ndeps > 12 {
			ndeps = 12
		}
		deps := make([]Deployment, 0, ndeps)
		for i := 0; i < ndeps; i++ {
			b := data[i*chunk : (i+1)*chunk]
			full := asgraph.NewSet(g.N())
			for bit := 0; bit < 48; bit++ {
				if b[bit/8]&(1<<(bit%8)) != 0 {
					full.Add(asgraph.AS(bit))
				}
			}
			simplex := asgraph.NewSet(g.N())
			for bit := 0; bit < 8; bit++ {
				if v := asgraph.AS(40 + bit); b[6]&(1<<bit) != 0 && !full.Has(v) {
					simplex.Add(v)
				}
			}
			var dp *core.Deployment
			if full.Len() > 0 || simplex.Len() > 0 {
				dp = &core.Deployment{Full: full, Simplex: simplex}
			}
			deps = append(deps, Deployment{Name: fmt.Sprintf("d%d", i), Dep: dp})
		}
		picked, _ := checkPlanProperties(t, deps, g)
		if t.Failed() {
			t.FailNow()
		}
		if ndeps == 0 {
			return // a grid's axis is never empty: expand defaults it to the baseline
		}
		ax, err := (&Grid{
			Models:       []policy.Model{policy.Sec1st, policy.Sec3rd},
			Deployments:  deps,
			Attackers:    []asgraph.AS{1, 2},
			Destinations: []asgraph.AS{2, 3, 4},
		}).expand()
		if err != nil {
			t.Fatal(err)
		}
		checkScheduleLayout(t, scheduleOf(ax, picked))
		singleton := scheduleOf(ax, singletonChainPlan(ndeps, fromScratchCost(g)))
		checkScheduleLayout(t, singleton)
		if !singleton.identity() {
			t.Fatal("the singleton plan does not schedule the identity order")
		}
		for p := 0; p < ax.cells; p++ {
			if cell := scheduledCell(singleton, p); cell != p {
				t.Fatalf("singleton plan maps position %d to cell %d", p, cell)
			}
		}
	})
}

// checkScheduleLayout asserts what the loop relies on when it cuts a
// schedule: the chain blocks tile the cell space in order, every
// position decodes to a distinct cell, and from any position the next
// handoff-free one is handoff-free, at or after it, and less than a
// chain away (or the end of the space).
func checkScheduleLayout(t *testing.T, s *schedule) {
	t.Helper()
	cells := s.ax.cells
	if len(s.blockStart) != len(s.plan.chains)+1 || s.blockStart[0] != 0 || s.blockStart[len(s.plan.chains)] != cells {
		t.Fatalf("blocks %v do not tile [0, %d) over %d chains", s.blockStart, cells, len(s.plan.chains))
	}
	group := s.ax.nm * s.ax.nd * s.ax.na
	for ci, ch := range s.plan.chains {
		if s.blockStart[ci+1]-s.blockStart[ci] != len(ch)*group {
			t.Fatalf("block %d spans [%d, %d), want %d steps x %d groups", ci, s.blockStart[ci], s.blockStart[ci+1], len(ch), group)
		}
	}
	seen := make([]bool, cells)
	for p := 0; p < cells; p++ {
		cell := scheduledCell(s, p)
		if cell < 0 || cell >= cells || seen[cell] {
			t.Fatalf("position %d maps to cell %d (dup or out of range)", p, cell)
		}
		seen[cell] = true
		next := s.nextFree(p)
		if next < p || next > cells || (next < cells && !s.handoffFree(next)) {
			t.Fatalf("nextFree(%d) = %d is not a handoff-free position at or after it", p, next)
		}
		if clen := len(s.plan.chains[s.chainAt(p)]); next-p >= clen {
			t.Fatalf("nextFree(%d) = %d skips a whole %d-step group run", p, next, clen)
		}
		if s.handoffFree(p) && next != p {
			t.Fatalf("position %d is handoff-free but nextFree moved it to %d", p, next)
		}
	}
	if got := s.nextFree(cells); got != cells {
		t.Fatalf("nextFree(end) = %d, want %d", got, cells)
	}
}
