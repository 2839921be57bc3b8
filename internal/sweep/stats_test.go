package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sbgp/internal/core"
	"sbgp/internal/policy"
	"sbgp/internal/topogen"
)

// TestShardStatsAddCoversEveryField sets every integer field of
// ShardStats, embedded counters included, to a distinct value and adds it
// into a zero value: the sum must equal it, so a counter added later
// cannot silently miss the daemon's totals.
func TestShardStatsAddCoversEveryField(t *testing.T) {
	var want ShardStats
	n := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); {
			case f.Kind() == reflect.Struct:
				fill(f)
			case f.CanInt():
				n++
				f.SetInt(n)
			default:
				t.Fatalf("ShardStats field %s is a %s, not an integer", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&want).Elem())
	var got ShardStats
	got.Add(want)
	if got != want {
		t.Fatalf("Add into zero = %#v, want %#v", got, want)
	}
}

// TestShardStatsString pins the -v line both CLIs print.
func TestShardStatsString(t *testing.T) {
	st := ShardStats{Units: 13, HandoffHits: 39, HandoffMisses: 2, MemoHits: 208, MemoFills: 29,
		Counters:   core.Counters{Runs: 50, DeltaSteps: 15, DirtyVolume: 10452, NoOps: 75, Fallbacks: 13, LateFallbacks: 4, Passes: 27},
		ChainHeads: 1, DeltaEdges: 3, PredictedVolume: 1718}
	const want = "schedule: 1 chain heads, 3 delta edges, predicted volume 1718 per walk; " +
		"engine: 50 runs (13 fallbacks, 4 late), 15 delta steps in 27 passes over dirty volume 10452, 75 no-ops; " +
		"dispatch: 13 units, handoff 39 hits / 2 misses, baseline memo 208 hits / 29 fills"
	if got := st.String(); got != want {
		t.Fatalf("String() =\n%s\nwant\n%s", got, want)
	}
}

// TestNestedCountsDeltaStepsAndNoOps: at one worker the golden nested
// grid's counters tell the RunDelta steps that did stage work from the
// security-free ones that did none, and account for every valid cell.
func TestNestedCountsDeltaStepsAndNoOps(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_nested.json"))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := topogen.MustGenerate(topogen.Params{N: 500, Seed: 17})
	grid := nestedGrid(g, 1, IncrementalAuto)
	var st ShardStats
	res, err := mustPrepare(grid, g).EvaluateSharded(context.Background(), ShardOptions{}, RunOptions{Stats: &st})
	if got := resultJSON(t, res, err); !bytes.Equal(got, want) {
		t.Fatal("result diverges from the golden bytes")
	}
	if st.DeltaSteps == 0 || st.NoOps == 0 {
		t.Errorf("%v: want both delta steps and no-ops", st)
	}
	if cells, valid := walkOf(st).cells, validCells(grid, policy.NumModels); cells != valid {
		t.Errorf("counters account for %d cells, want all %d valid ones", cells, valid)
	}
}
