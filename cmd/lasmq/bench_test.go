package main

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSeriesUtilizationUsesRowCapacity: -series-out divides by the selected
// experiment's own cluster capacity (fig5 runs on 120 containers, not the 20
// of the trace simulations), so utilization is a fraction; a multi-experiment
// run, whose capacities differ, leaves the column at 0.
func TestSeriesUtilizationUsesRowCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig5")
	}
	maxUtilization := func(experiment string) float64 {
		t.Helper()
		path := filepath.Join(t.TempDir(), "series.csv")
		if err := run([]string{"bench", "-experiment", experiment, "-trace-jobs", "600", "-uniform-jobs", "120", "-series-out", path}, io.Discard); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil || len(rows) < 2 || rows[0][1] != "utilization" {
			t.Fatalf("series CSV: %d rows, err %v", len(rows), err)
		}
		var high float64
		for _, row := range rows[1:] {
			u, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			if u > high {
				high = u
			}
		}
		return high
	}
	if u := maxUtilization("fig5"); u <= 0.5 || u > 1 {
		t.Errorf("fig5 peak utilization = %v, want in (0.5, 1]", u)
	}
	if u := maxUtilization("all"); u != 0 {
		t.Errorf(`"all" peak utilization = %v, want 0 (disabled)`, u)
	}
}

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
