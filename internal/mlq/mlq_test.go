package mlq

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, k int, first, step float64) *Levels {
	t.Helper()
	l, err := New(k, first, step)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		k       int
		first   float64
		step    float64
		wantErr bool
	}{
		{name: "valid paper testbed", k: 10, first: 100, step: 10},
		{name: "valid paper simulation", k: 10, first: 1, step: 10},
		{name: "single queue ignores thresholds", k: 1, first: 0, step: 0},
		{name: "zero queues", k: 0, first: 1, step: 10, wantErr: true},
		{name: "negative first", k: 3, first: -1, step: 10, wantErr: true},
		{name: "zero first", k: 3, first: 0, step: 10, wantErr: true},
		{name: "step below one", k: 3, first: 1, step: 0.5, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.k, tt.first, tt.step)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%d, %v, %v) error = %v, wantErr %v", tt.k, tt.first, tt.step, err, tt.wantErr)
			}
		})
	}
}

// TestNonFiniteRejected: a NaN or infinite first threshold or step is an
// error naming the argument — every comparison with NaN is false, so range
// checks written as < or > let it through, and a NaN threshold files every
// job in the last queue.
func TestNonFiniteRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name        string
		first, step float64
		want        string
	}{
		{"NaN first", nan, 10, "first threshold"},
		{"+Inf first", inf, 10, "first threshold"},
		{"NaN step", 1, nan, "step"},
		{"+Inf step", 1, inf, "step"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(3, tt.first, tt.step)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("New(3, %v, %v) error = %v, want one naming %q", tt.first, tt.step, err, tt.want)
			}
		})
	}
}

func TestThresholdsExponential(t *testing.T) {
	l := mustNew(t, 5, 100, 10)
	want := []float64{100, 1000, 10000, 100000}
	for i, w := range want {
		if got := l.Threshold(i); got != w {
			t.Errorf("Threshold(%d) = %v, want %v", i, got, w)
		}
	}
	if got := l.Threshold(4); !math.IsInf(got, 1) {
		t.Errorf("last queue threshold = %v, want +Inf", got)
	}
	if got := l.Threshold(-1); !math.IsInf(got, 1) {
		t.Errorf("Threshold(-1) = %v, want +Inf", got)
	}
}

func TestQueues(t *testing.T) {
	if got := mustNew(t, 10, 1, 10).Queues(); got != 10 {
		t.Errorf("Queues = %d, want 10", got)
	}
	if got := mustNew(t, 1, 1, 10).Queues(); got != 1 {
		t.Errorf("Queues = %d, want 1", got)
	}
}

func TestPlacement(t *testing.T) {
	l := mustNew(t, 4, 100, 10) // thresholds 100, 1000, 10000
	tests := []struct {
		estimate float64
		want     int
	}{
		{estimate: 0, want: 0},
		{estimate: 100, want: 0},     // stays while service <= threshold
		{estimate: 100.001, want: 1}, // demoted only when strictly above
		{estimate: 1000, want: 1},
		{estimate: 5000, want: 2},
		{estimate: 10000, want: 2},
		{estimate: 1e9, want: 3}, // anything beyond the last threshold -> last queue
	}
	for _, tt := range tests {
		if got := l.Placement(tt.estimate); got != tt.want {
			t.Errorf("Placement(%v) = %d, want %d", tt.estimate, got, tt.want)
		}
	}
}

func TestDemoteOnly(t *testing.T) {
	l := mustNew(t, 4, 100, 10)
	// A job in queue 2 whose estimate shrinks (stage-aware over-estimate
	// corrected) must not be promoted back.
	if got := l.Demote(2, 50); got != 2 {
		t.Errorf("Demote(2, 50) = %d, want 2 (demote-only)", got)
	}
	if got := l.Demote(0, 5000); got != 2 {
		t.Errorf("Demote(0, 5000) = %d, want 2", got)
	}
	if got := l.Demote(1, 500); got != 1 {
		t.Errorf("Demote(1, 500) = %d, want 1", got)
	}
}

func TestDemoteClampsCurrent(t *testing.T) {
	l := mustNew(t, 3, 1, 10)
	if got := l.Demote(-5, 0); got != 0 {
		t.Errorf("Demote(-5, 0) = %d, want 0", got)
	}
	if got := l.Demote(99, 0); got != 2 {
		t.Errorf("Demote(99, 0) = %d, want last queue 2", got)
	}
}

func TestSingleQueueNeverDemotes(t *testing.T) {
	l := mustNew(t, 1, 0, 0)
	if got := l.Placement(1e18); got != 0 {
		t.Errorf("Placement = %d, want 0", got)
	}
	if got := l.Demote(0, 1e18); got != 0 {
		t.Errorf("Demote = %d, want 0", got)
	}
}

func TestPlacementMonotoneProperty(t *testing.T) {
	l := mustNew(t, 10, 1, 10)
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if a > b {
			a, b = b, a
		}
		return l.Placement(a) <= l.Placement(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPlacementRespectsThresholdProperty(t *testing.T) {
	l := mustNew(t, 10, 1, 10)
	f := func(raw float64) bool {
		est := math.Abs(raw)
		if math.IsInf(est, 0) || math.IsNaN(est) {
			return true
		}
		q := l.Placement(est)
		// The estimate must be within the assigned queue's threshold and above
		// the previous queue's threshold.
		if est > l.Threshold(q) {
			return false
		}
		if q > 0 && est <= l.Threshold(q-1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
