package fluid

import (
	"strings"
	"testing"

	"lasmq/internal/sched"
)

// TestStuckAdmission drives the defensive stuck-admission error path: the
// cluster is idle, no arrivals remain, yet the admission module still holds
// jobs it can never release. The state is unreachable through Run's public
// API (every admitted fluid job eventually finishes and frees its slot), so
// the test leaks an admission slot through the kernel queue directly.
func TestStuckAdmission(t *testing.T) {
	specs := []JobSpec{{ID: 1, Arrival: 0, Size: 1, Width: 1}}
	s := newSim(SliceSource(specs), sched.NewFIFO(), Config{Capacity: 1, TaskDuration: 1, MaxRunningJobs: 1}, nil)
	defer s.release()
	// Leak the only admission slot: a phantom job is released (occupying the
	// slot) but never joins the active set, so it can never complete.
	s.adm.Push(&fluidJob{spec: JobSpec{ID: 99}})
	s.adm.Admit(func(*fluidJob, int) {})

	err := s.run()
	if err == nil {
		t.Fatal("run with a leaked admission slot must fail, got nil")
	}
	want := "fluid: 1 jobs stuck in admission with empty cluster"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %q, want it to contain %q", err, want)
	}
}
