package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSinkWritesEveryOutput opens all three outputs behind one sink, feeds
// the probe a one-job run, and checks each file is written and named in the
// summary.
func TestSinkWritesEveryOutput(t *testing.T) {
	dir := t.TempDir()
	cfg := sinkConfig{
		TraceOut: filepath.Join(dir, "t.jsonl"), TraceFormat: "jsonl",
		HistOut: filepath.Join(dir, "h.csv"), SeriesOut: filepath.Join(dir, "s.csv"),
		SeriesWindow: 1, Capacity: 4,
	}
	sink, err := openSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sink.probe()
	p.JobSubmitted(0, 1)
	p.RoundExecuted(0, 1)
	p.TaskStart(0, 1, 0, 0, 1, false)
	p.RoundExecuted(2, 1)
	p.TaskDone(3, 1, 0, 0, 0, false)
	p.JobDone(3, 1, 3)
	if err := sink.close(); err != nil {
		t.Fatal(err)
	}
	var summary strings.Builder
	sink.printSummary(&summary)
	for _, path := range []string{cfg.TraceOut, cfg.HistOut, cfg.SeriesOut} {
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			t.Errorf("%s: %d bytes, err %v", path, len(data), err)
		}
		if !strings.Contains(summary.String(), path) {
			t.Errorf("summary does not name %s:\n%s", path, summary.String())
		}
	}
	series, _ := os.ReadFile(cfg.SeriesOut)
	if !strings.Contains(string(series), "\n2,0.25,") {
		t.Errorf("series lacks the t=2 point at utilization 1/4:\n%s", series)
	}
}

// TestSinkOffAndRefused: no paths means a nil sink whose methods are no-ops;
// a bad trace format is refused before any file is created.
func TestSinkOffAndRefused(t *testing.T) {
	sink, err := openSink(sinkConfig{TraceFormat: "jsonl", SeriesWindow: 50})
	if sink != nil || err != nil {
		t.Fatalf("openSink(no paths) = %v, %v; want nil, nil", sink, err)
	}
	if sink.probe() != nil || sink.close() != nil {
		t.Error("nil sink is not inert")
	}
	sink.printSummary(&strings.Builder{})

	dir := t.TempDir()
	path := filepath.Join(dir, "t.out")
	if _, err := openSink(sinkConfig{TraceOut: path, TraceFormat: "xml"}); err == nil {
		t.Error("unknown trace format accepted")
	}
	if _, err := os.Stat(path); err == nil {
		t.Errorf("refused sink left %s behind", path)
	}
	// A later output that cannot be created removes the earlier ones.
	if _, err := openSink(sinkConfig{TraceOut: path, TraceFormat: "jsonl", HistOut: filepath.Join(dir, "no/such/h.csv")}); err == nil {
		t.Error("uncreatable histogram path accepted")
	}
	if _, err := os.Stat(path); err == nil {
		t.Errorf("failed sink left %s behind", path)
	}
}
