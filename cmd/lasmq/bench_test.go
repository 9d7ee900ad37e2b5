package main

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lasmq/internal/experiments"
)

// TestSeriesUtilizationUsesRowCapacity: -series-out divides by the selected
// experiment's own cluster capacity (fig5 runs on 120 containers, not the 20
// of the trace simulations), so utilization is a fraction; a multi-experiment
// selection, whose capacities differ, gets no capacity, and a series without
// one leaves the column at 0 while tasks run.
func TestSeriesUtilizationUsesRowCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig5")
	}
	path := filepath.Join(t.TempDir(), "series.csv")
	if err := run([]string{"bench", "-experiment", "fig5", "-trace-jobs", "600", "-uniform-jobs", "120", "-series-out", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if u, _ := seriesPeaks(t, path); u <= 0.5 || u > 1 {
		t.Errorf("fig5 peak utilization = %v, want in (0.5, 1]", u)
	}

	// Running every experiment to read one column is what "all" would cost;
	// fig5 through a sink with the capacity "all" gets stands for it.
	all, err := experiments.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.Options{Seed: 1, TraceJobs: 600, UniformJobs: 120}
	capacity := seriesCapacity(all, opts)
	if len(all) < 2 || capacity != 0 {
		t.Fatalf(`"all" selects %d experiments with series capacity %d, want several and 0`, len(all), capacity)
	}
	fig5, err := experiments.Select("fig5")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := openSink(sinkConfig{SeriesOut: path, SeriesWindow: 50, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	opts.Probe = sink.probe()
	if err := runDirect(io.Discard, fig5[0], opts, ""); err != nil {
		t.Fatal(err)
	}
	if err := sink.close(); err != nil {
		t.Fatal(err)
	}
	if u, running := seriesPeaks(t, path); u != 0 || running == 0 {
		t.Errorf(`"all" peak utilization = %v with %v running tasks, want 0 (disabled) with tasks running`, u, running)
	}
}

// seriesPeaks reads a series CSV and returns the peaks of its utilization
// and running-tasks columns.
func seriesPeaks(t *testing.T, path string) (utilization, running float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil || len(rows) < 2 || rows[0][1] != "utilization" || rows[0][3] != "running_tasks" {
		t.Fatalf("series CSV: %d rows, err %v", len(rows), err)
	}
	for _, row := range rows[1:] {
		u, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		r, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		utilization, running = max(utilization, u), max(running, r)
	}
	return utilization, running
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
