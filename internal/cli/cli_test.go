package cli

import (
	"strings"
	"testing"

	"lasmq/internal/core"
)

func TestBuildScheduler(t *testing.T) {
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
			s, err := BuildScheduler(tt.give, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if s.Name() != tt.want {
				t.Errorf("BuildScheduler(%q).Name() = %q, want %q", tt.give, s.Name(), tt.want)
			}
		})
	}
}

func TestBuildSchedulerUnknown(t *testing.T) {
	_, err := BuildScheduler("bogus", core.DefaultConfig())
	if err == nil {
		t.Fatal("expected error for unknown scheduler")
	}
	if !strings.Contains(err.Error(), SchedulerNames()) {
		t.Errorf("error %q does not list the accepted names %q", err, SchedulerNames())
	}
}

// TestSchedulerNamesDerived: the -scheduler help text is the policy table,
// not a hand-kept string.
func TestSchedulerNamesDerived(t *testing.T) {
	if got, want := SchedulerNames(), strings.Join(core.PolicyNames(), ", "); got != want {
		t.Errorf("SchedulerNames() = %q, want %q", got, want)
	}
}

func TestBuildSchedulerInvalidConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Queues = 0
	if _, err := BuildScheduler("lasmq", cfg); err == nil {
		t.Error("expected error for invalid LAS_MQ config")
	}
}

func TestPrintSummary(t *testing.T) {
	var b strings.Builder
	PrintSummary(&b, "resp", []float64{1, 2, 3, 4})
	out := b.String()
	for _, want := range []string{"resp:", "n=4", "mean=2.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
}

func TestPrintCDF(t *testing.T) {
	var b strings.Builder
	PrintCDF(&b, []float64{1, 2, 3}, 10)
	out := b.String()
	if !strings.HasPrefix(out, "value,cdf\n") {
		t.Errorf("CDF output missing header: %q", out)
	}
	if !strings.Contains(out, "3,1") {
		t.Errorf("CDF output missing final point: %q", out)
	}
	var empty strings.Builder
	PrintCDF(&empty, nil, 10)
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
	PrintCDF(&b, values, 10)
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
	if err := PrintBinMeans(&b, []int{1, 1, 2}, []float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "bin 1: mean response 15") || !strings.Contains(out, "bin 2: mean response 30") {
		t.Errorf("bin means output wrong:\n%s", out)
	}
	if err := PrintBinMeans(&b, []int{1}, []float64{1, 2}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
}
