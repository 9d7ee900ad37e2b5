package main

import (
	"io"
	"strings"
	"testing"
)

// TestExperimentSelectionErrors: the direct-only row is refused by name in
// replicated mode, and an unknown name lists every valid one.
func TestExperimentSelectionErrors(t *testing.T) {
	err := run([]string{"bench", "-experiment", "table1", "-seeds", "2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "table1 runs in direct mode only") {
		t.Errorf("table1 -seeds 2: error %v", err)
	}
	for _, mode := range [][]string{nil, {"-seeds", "2"}} {
		err := run(append([]string{"bench", "-experiment", "bogus"}, mode...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), "fig7a") {
			t.Errorf("bogus %v: error %v", mode, err)
		}
	}
}
