package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"lasmq/internal/core"
	"lasmq/internal/workload"
)

// TestSubcommands runs every subcommand once, at tiny sizes, through run and
// checks the first line each writes to out.
func TestSubcommands(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "trace.csv")
	tests := []struct {
		name string
		args []string
		want string // a regexp the first output line must match
	}{
		{"sim", []string{"sim", "-jobs", "200"}, `^scheduler=LAS_MQ jobs=200 capacity=20 makespan=\S+ rounds=\d+$`},
		{"cluster", []string{"cluster", "-scheduler", "fair"}, `^scheduler=FAIR interval=80s jobs=100 containers=120 load=2\.12 makespan=\d+s$`},
		{"live", []string{"live", "-jobs", "2"}, `^scheduler=LAS_MQ jobs=2 cluster=4x30 wall=\S+$`},
		{"bench", []string{"bench", "-experiment", "fig7b", "-uniform-jobs", "120"}, `^== Fig\. 7b: uniform workload`},
		{"trace", []string{"trace", "-kind", "uniform", "-jobs", "50", "-out", csv}, `^wrote 50 jobs to ` + regexp.QuoteMeta(csv) + `$`},
		{"trace-describe", []string{"trace", "-describe", csv}, `^jobs: 50$`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tt.args, &out); err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(out.String(), "\n")
			if !regexp.MustCompile(tt.want).MatchString(first) {
				t.Errorf("first line %q does not match %q", first, tt.want)
			}
		})
	}
	for _, args := range [][]string{nil, {"bogus"}, {"-scheduler", "fifo"}} {
		if err := run(args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want the usage error", args, err)
		}
	}
	if err := run([]string{"sim", "extra"}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "lasmq sim takes flags only") {
		t.Errorf("sim with a positional argument: error %v", err)
	}
}

// TestClusterTimeline: `lasmq cluster -timeline 50` ends in the series CSV,
// one q column per queue level the run entered. Under the testbed ladder
// (α₀ = 100, step 10) no Table I job passes 10^5 container-seconds, so levels
// 0-4 only; α₀ = 1 and step 2 push jobs through all ten default levels.
func TestClusterTimeline(t *testing.T) {
	for levels, extra := range map[int][]string{5: nil, 10: {"-threshold", "1", "-step", "2"}} {
		var out bytes.Buffer
		if err := run(append([]string{"cluster", "-timeline", "50"}, extra...), &out); err != nil {
			t.Fatal(err)
		}
		header := "time,live_jobs,waiting_jobs,running_containers,events_per_sec"
		for q := range levels {
			header += ",q" + strconv.Itoa(q)
		}
		_, rows, ok := strings.Cut(out.String(), "\n"+header+"\n")
		if !ok || rows == "" {
			t.Fatalf("%v: no %d-level series CSV with a point in:\n%s", extra, levels, out.String())
		}
		for _, row := range strings.Split(strings.TrimSuffix(rows, "\n"), "\n") {
			if n := strings.Count(row, ","); n != 4+levels {
				t.Fatalf("%v: row %q has %d fields, want %d", extra, row, n+1, 5+levels)
			}
		}
	}
}

// TestSchedulerFlag: every -scheduler spelling, aliases and any case, reaches
// core.NewPolicy through the shared policy flags and names its scheduler in
// the first output line.
func TestSchedulerFlag(t *testing.T) {
	tests := []struct {
		give string
		want string
	}{
		{give: "lasmq", want: "LAS_MQ"},
		{give: "LAS_MQ", want: "LAS_MQ"},
		{give: "las-mq", want: "LAS_MQ"},
		{give: "las", want: "LAS"},
		{give: "fair", want: "FAIR"},
		{give: "FIFO", want: "FIFO"},
		{give: "sjf", want: "SJF"},
		{give: "srtf", want: "SRTF"},
		{give: "ps", want: "PS"},
		{give: "srpt", want: "SRPT"},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"sim", "-jobs", "20", "-scheduler", tt.give}, &out); err != nil {
				t.Fatal(err)
			}
			if want := "scheduler=" + tt.want + " "; !strings.HasPrefix(out.String(), want) {
				first, _, _ := strings.Cut(out.String(), "\n")
				t.Errorf("-scheduler %s: first line %q, want prefix %q", tt.give, first, want)
			}
		})
	}
}

// TestSchedulerFlagUnknown: an unknown -scheduler is an error that lists
// every accepted name.
func TestSchedulerFlagUnknown(t *testing.T) {
	for _, cmd := range []string{"sim", "cluster"} {
		err := run([]string{cmd, "-scheduler", "bogus"}, &bytes.Buffer{})
		if err == nil {
			t.Fatalf("%s -scheduler bogus: no error", cmd)
		}
		if want := strings.Join(core.PolicyNames(), ", "); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not list the accepted names %q", cmd, err, want)
		}
	}
}

// TestSchedulerFlagInvalidConfig: LAS_MQ knobs that core rejects are an
// error, not a run.
func TestSchedulerFlagInvalidConfig(t *testing.T) {
	for _, cmd := range []string{"sim", "cluster"} {
		var out bytes.Buffer
		if err := run([]string{cmd, "-queues", "0"}, &out); err == nil {
			t.Errorf("%s -queues 0: no error", cmd)
		}
		if out.Len() != 0 {
			t.Errorf("%s -queues 0 wrote %q", cmd, out.String())
		}
	}
}

// TestDescribeHeaderOnlyTrace: a trace with a header and no jobs is an error,
// not a panic, and prints nothing.
func TestDescribeHeaderOnlyTrace(t *testing.T) {
	full := filepath.Join(t.TempDir(), "full.csv")
	if err := run([]string{"trace", "-jobs", "3", "-out", full}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(data), "\n")
	empty := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(empty, []byte(header+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"trace", "-describe", empty}, &out); err == nil || !strings.Contains(err.Error(), "no jobs") {
		t.Errorf("describe of a header-only trace: error %v, want one naming no jobs", err)
	}
	if out.Len() != 0 {
		t.Errorf("describe of a header-only trace printed %q", out.String())
	}
}

// TestLiveWorkloadCounts: -jobs N submits exactly N jobs, each Table I type
// getting its share of N rounded down or up.
func TestLiveWorkloadCounts(t *testing.T) {
	table := workload.TableI()
	for _, n := range []int{1, 7, 20, 50, 100, 101} {
		specs, err := liveWorkload(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != n {
			t.Errorf("liveWorkload(%d) drew %d jobs", n, len(specs))
		}
		got := make(map[string]int)
		for _, s := range specs {
			got[s.Name]++
		}
		for _, jt := range table {
			if low := jt.Count * n / 100; got[jt.Name] < low || got[jt.Name] > low+1 {
				t.Errorf("liveWorkload(%d): %d %s jobs, want %d or %d", n, got[jt.Name], jt.Name, low, low+1)
			}
		}
	}
	if _, err := liveWorkload(0, 1); err == nil {
		t.Error("liveWorkload(0) accepted")
	}
}

// TestLiveReleasesDebugServer: a live run that fails to drain still shuts
// its debug server down and stops its ring consumer before returning.
func TestLiveReleasesDebugServer(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"live", "-jobs", "2", "-timeout", "1ns", "-debug-addr", "127.0.0.1:0"}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run = %v, want the drain deadline", err)
	}
	m := regexp.MustCompile(`http://(\S+)/metrics`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no telemetry address in %q", out.String())
	}
	if conn, err := net.Dial("tcp", m[1]); err == nil {
		conn.Close()
		t.Errorf("debug server at %s still accepts connections", m[1])
	}
	// The consumer has closed its done channel by the time run returns, but
	// may not have left its frame yet; a leaked one never does.
	buf := make([]byte, 1<<20)
	for try := 0; ; try++ {
		stacks := buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(stacks, []byte("drainRing")) {
			break
		}
		if try == 100 {
			t.Fatalf("a ring consumer outlives the run:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPrintSummary(t *testing.T) {
	var b strings.Builder
	printSummary(&b, "resp", []float64{1, 2, 3, 4})
	out := b.String()
	for _, want := range []string{"resp:", "n=4", "mean=2.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
}

func TestPrintCDF(t *testing.T) {
	var b strings.Builder
	printCDF(&b, []float64{1, 2, 3}, 10)
	out := b.String()
	if !strings.HasPrefix(out, "value,cdf\n") {
		t.Errorf("CDF output missing header: %q", out)
	}
	if !strings.Contains(out, "3,1") {
		t.Errorf("CDF output missing final point: %q", out)
	}
	var empty strings.Builder
	printCDF(&empty, nil, 10)
	if empty.Len() != 0 {
		t.Errorf("empty CDF produced output %q", empty.String())
	}
}

func TestPrintCDFDownsamples(t *testing.T) {
	values := make([]float64, 1000)
	for i := range values {
		values[i] = float64(i)
	}
	var b strings.Builder
	printCDF(&b, values, 10)
	lines := strings.Count(b.String(), "\n")
	if lines > 120 {
		t.Errorf("downsampled CDF has %d lines, want around 10", lines)
	}
	if !strings.Contains(b.String(), "999,1") {
		t.Errorf("downsampled CDF lost final point:\n%s", b.String())
	}
}

func TestPrintBinMeans(t *testing.T) {
	var b strings.Builder
	if err := printBinMeans(&b, []int{1, 1, 2}, []float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "bin 1: mean response 15") || !strings.Contains(out, "bin 2: mean response 30") {
		t.Errorf("bin means output wrong:\n%s", out)
	}
	if err := printBinMeans(&b, []int{1}, []float64{1, 2}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}
