package core

import (
	"testing"

	"sbgp/internal/policy"
)

// TestRebindDifferentSizePanics: the slabs are sized by n, so a graph of
// another size is a caller bug the engine refuses loudly.
func TestRebindDifferentSizePanics(t *testing.T) {
	e := NewEngine(lineGraph(8), policy.Sec1st)
	defer func() {
		if recover() == nil {
			t.Fatal("Rebind to a graph of a different size did not panic")
		}
	}()
	e.Rebind(lineGraph(9))
}
