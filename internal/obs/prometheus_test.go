package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenState builds a fixed telemetry state: every counter field non-zero
// via real probe events, and dyadic histogram observations so the exposition
// floats are exact.
func goldenState() (*Counters, *Histograms) {
	c := NewCounters()
	h := NewHistograms()
	p := Multi(c, h)
	p.JobSubmitted(0, 1)
	p.JobSubmitted(0.5, 2)
	p.JobAdmitted(1, 1, 1)
	p.JobAdmitted(1.5, 2, 1)
	p.JobStarted(1, 1)
	p.TaskStart(1, 1, 0, 0, 1, false)
	p.TaskStart(1.25, 1, 0, 1, 1, true)
	p.TaskDone(3, 1, 0, 0, 1, false)
	p.TaskDone(3.5, 1, 0, 1, 1.25, true)
	p.TaskFail(2, 2, 0, 0, 1.5)
	p.QueueEnter(1, 1, 0)
	p.QueueDemote(2, 1, 0, 1, 16)
	p.QueueExit(3, 1, 1)
	p.ThresholdRefit(4, 16, 10)
	p.RoundExecuted(1, 2)
	p.RoundSkipped(2, true)
	p.ArenaReuse(2, 8, true)
	p.SlabStats(8, 0, 6, 3)
	p.StageDone(7, 1, 0)
	p.JobDone(7.5, 1, 6.5)
	p.JobDone(8, 2, 7.5)
	h.ObserveSlowdown(2)
	h.ObserveSlowdown(4)
	h.ObserveRoundLatency(0.000244140625) // 2^-12, exact
	return c, h
}

// TestPrometheusGolden pins the /metrics exposition byte-for-byte against
// testdata/metrics.golden (regenerate with `go test ./internal/obs -run
// Golden -update` and review the diff).
func TestPrometheusGolden(t *testing.T) {
	c, h := goldenState()
	snap := c.Snapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, &snap, h); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "metrics.golden", buf.Bytes())
}

// TestSchedHistGolden pins the /debug/schedhist JSON document the same way.
func TestSchedHistGolden(t *testing.T) {
	_, h := goldenState()
	var buf bytes.Buffer
	if err := WriteSchedHist(&buf, h); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "schedhist.golden", buf.Bytes())
}

// TestHistogramCSVGolden pins the -hist-out CSV format.
func TestHistogramCSVGolden(t *testing.T) {
	_, h := goldenState()
	var buf bytes.Buffer
	if err := WriteHistogramCSV(&buf, h); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "hist.golden.csv", buf.Bytes())
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (regenerate with -update and review):\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestPrometheusWellFormed sanity-checks exposition grammar independent of
// the golden bytes: every non-comment line is "name[{labels}] value", every
// histogram ends with a +Inf bucket whose count equals _count, and families
// appear in the fixed order.
func TestPrometheusWellFormed(t *testing.T) {
	c, h := goldenState()
	snap := c.Snapshot()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, &snap, h); err != nil {
		t.Fatal(err)
	}
	var lastHelp string
	var helps []string
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			lastHelp = strings.Fields(line)[2]
			helps = append(helps, lastHelp)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			if name := strings.Fields(line)[2]; name != lastHelp {
				t.Fatalf("TYPE %s does not follow its HELP", name)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("sample line %q is not `name value`", line)
		}
		if !strings.HasPrefix(fields[0], "lasmq_") {
			t.Fatalf("sample %q lacks the lasmq_ prefix", fields[0])
		}
	}
	// Histogram families emit after the counters, in sorted name order.
	var histFamilies []string
	for _, name := range HistogramNames() {
		m, _ := promHistogramMeta(name)
		histFamilies = append(histFamilies, m)
	}
	if len(helps) < len(histFamilies) {
		t.Fatalf("only %d families", len(helps))
	}
	tail := helps[len(helps)-len(histFamilies):]
	for i, m := range histFamilies {
		if tail[i] != m {
			t.Fatalf("histogram family order: got %v, want %v", tail, histFamilies)
		}
	}
}

// TestCountersShardSummaryOrder pins satellite-level determinism: the
// per-shard summary lines emit in ascending shard-index order no matter the
// order shard probes were derived or the map's iteration order.
func TestCountersShardSummaryOrder(t *testing.T) {
	c := NewCounters()
	for _, shard := range []int{7, 2, 11, 0, 5} {
		p := c.ShardProbe(shard)
		p.JobSubmitted(0, shard)
	}
	if got := c.ShardIndexes(); len(got) != 5 || got[0] != 0 || got[4] != 11 {
		t.Fatalf("ShardIndexes = %v, want ascending [0 2 5 7 11]", got)
	}
	var buf bytes.Buffer
	c.WriteSummary(&buf)
	var order []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "shard ") {
			order = append(order, strings.Fields(line)[1])
		}
	}
	want := []string{"0", "2", "5", "7", "11"}
	if len(order) != len(want) {
		t.Fatalf("got %d shard lines, want %d:\n%s", len(order), len(want), buf.String())
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("shard summary order = %v, want %v", order, want)
		}
	}
}
