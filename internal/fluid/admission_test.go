package fluid_test

import (
	"reflect"
	"testing"

	"lasmq/internal/fluid"
	"lasmq/internal/sched"
)

// TestAdmissionLimitEdgeCasesFluid covers the kernel admission queue's
// boundary settings through the fluid simulator: limit 0 means unlimited,
// and a limit above the job count must behave identically to unlimited.
// (Limit 1 serialization is covered by TestAdmissionLimit.)
func TestAdmissionLimitEdgeCasesFluid(t *testing.T) {
	specs := []fluid.JobSpec{
		{ID: 1, Arrival: 0, Size: 10, Width: 5, Priority: 1},
		{ID: 2, Arrival: 1, Size: 6, Width: 3, Priority: 1},
		{ID: 3, Arrival: 2, Size: 4, Width: 2, Priority: 1},
	}
	run := func(limit int) *fluid.Result {
		t.Helper()
		cfg := fluid.Config{Capacity: 10, TaskDuration: 1, MaxRunningJobs: limit}
		res, err := fluid.Run(specs, sched.NewFair(), cfg)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		if got := len(res.Jobs); got != len(specs) {
			t.Fatalf("limit %d: completed %d jobs, want %d", limit, got, len(specs))
		}
		for _, jr := range res.Jobs {
			if jr.ResponseTime <= 0 {
				t.Fatalf("limit %d: job %d has response %v, want > 0", limit, jr.ID, jr.ResponseTime)
			}
		}
		return res
	}

	unlimited := run(0)
	above := run(len(specs) + 10)
	if !reflect.DeepEqual(unlimited.Jobs, above.Jobs) {
		t.Errorf("limit above job count diverged from unlimited:\n  limit 0: %+v\n  limit %d: %+v",
			unlimited.Jobs, len(specs)+10, above.Jobs)
	}
	if unlimited.MeanResponseTime() != above.MeanResponseTime() {
		t.Errorf("mean response: limit 0 = %v, limit above count = %v",
			unlimited.MeanResponseTime(), above.MeanResponseTime())
	}
}

// TestFinishedAtAdmissionCompletesUnserved guards the round's advance: a job
// that is finished when it is admitted (edgeTrace's 1e-10 job) completes at
// the end of the first round after its admission even though FIFO gives it
// no share, with and without an admission cap.
func TestFinishedAtAdmissionCompletesUnserved(t *testing.T) {
	for _, tc := range []struct {
		limit int
		want  float64 // the end of the first round after job 3's admission
	}{
		{0, 2},  // admitted at t = 1; job 1 completes at t = 2
		{2, 12}, // admitted at t = 2, when job 1 leaves; job 2 completes at t = 12
	} {
		cfg := fluid.Config{Capacity: 10, TaskDuration: 1, MaxRunningJobs: tc.limit}
		res, err := fluid.Run(edgeTrace(), sched.NewFIFO(), cfg)
		if err != nil {
			t.Fatalf("limit %d: %v", tc.limit, err)
		}
		if got := res.Jobs[2].Completed; got != tc.want {
			t.Errorf("limit %d: job 3 completed at %v, want %v", tc.limit, got, tc.want)
		}
	}
}
