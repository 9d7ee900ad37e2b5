package job

import (
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"
)

func validSpec() Spec {
	return Spec{
		ID:       1,
		Name:     "WordCount",
		Bin:      4,
		Priority: 3,
		Arrival:  10,
		Stages: []StageSpec{
			{Name: "map", Tasks: []TaskSpec{{Duration: 10, Containers: 1}, {Duration: 20, Containers: 1}}},
			{Name: "reduce", Tasks: []TaskSpec{{Duration: 5, Containers: 2}}},
		},
	}
}

func TestStageService(t *testing.T) {
	s := validSpec()
	if got := s.Stages[0].Service(); got != 30 {
		t.Errorf("map stage service = %v, want 30", got)
	}
	if got := s.Stages[1].Service(); got != 10 {
		t.Errorf("reduce stage service = %v, want 10", got)
	}
}

func TestTotalService(t *testing.T) {
	s := validSpec()
	if got := s.TotalService(); got != 40 {
		t.Errorf("TotalService = %v, want 40", got)
	}
}

func TestTotalTasks(t *testing.T) {
	s := validSpec()
	if got := s.TotalTasks(); got != 3 {
		t.Errorf("TotalTasks = %d, want 3", got)
	}
}

func TestEffectiveSizeHint(t *testing.T) {
	s := validSpec()
	if got := s.EffectiveSizeHint(); got != 40 {
		t.Errorf("default hint = %v, want true size 40", got)
	}
	s.SizeHint = 7
	if got := s.EffectiveSizeHint(); got != 7 {
		t.Errorf("explicit hint = %v, want 7", got)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{name: "valid", mutate: func(s *Spec) {}},
		{name: "negative arrival", mutate: func(s *Spec) { s.Arrival = -1 }, wantErr: "negative arrival"},
		{name: "NaN arrival", mutate: func(s *Spec) { s.Arrival = math.NaN() }, wantErr: "non-finite arrival"},
		{name: "+Inf arrival", mutate: func(s *Spec) { s.Arrival = math.Inf(1) }, wantErr: "non-finite arrival"},
		{name: "NaN size hint", mutate: func(s *Spec) { s.SizeHint = math.NaN() }, wantErr: "non-finite size hint"},
		{name: "+Inf size hint", mutate: func(s *Spec) { s.SizeHint = math.Inf(1) }, wantErr: "non-finite size hint"},
		{name: "-Inf size hint", mutate: func(s *Spec) { s.SizeHint = math.Inf(-1) }, wantErr: "non-finite size hint"},
		{name: "no stages", mutate: func(s *Spec) { s.Stages = nil }, wantErr: "no stages"},
		{name: "empty stage", mutate: func(s *Spec) { s.Stages[0].Tasks = nil }, wantErr: "no tasks"},
		{name: "zero duration", mutate: func(s *Spec) { s.Stages[0].Tasks[0].Duration = 0 }, wantErr: "non-positive duration"},
		{name: "negative duration", mutate: func(s *Spec) { s.Stages[0].Tasks[0].Duration = -5 }, wantErr: "non-positive duration"},
		{name: "NaN duration", mutate: func(s *Spec) { s.Stages[1].Tasks[0].Duration = math.NaN() }, wantErr: "task 0: non-finite duration"},
		{name: "+Inf duration", mutate: func(s *Spec) { s.Stages[0].Tasks[1].Duration = math.Inf(1) }, wantErr: "task 1: non-finite duration"},
		{name: "-Inf duration", mutate: func(s *Spec) { s.Stages[0].Tasks[0].Duration = math.Inf(-1) }, wantErr: "non-finite duration"},
		{name: "zero containers", mutate: func(s *Spec) { s.Stages[1].Tasks[0].Containers = 0 }, wantErr: "non-positive containers"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validSpec()
			tt.mutate(&s)
			err := s.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("Validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestValidateAll(t *testing.T) {
	a, b := validSpec(), validSpec()
	b.ID = 2
	if err := ValidateAll([]Spec{a, b}); err != nil {
		t.Errorf("ValidateAll = %v, want nil", err)
	}
	b.ID = 1
	if err := ValidateAll([]Spec{a, b}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("ValidateAll = %v, want duplicate-ID error", err)
	}
	bad := validSpec()
	bad.Stages = nil
	if err := ValidateAll([]Spec{bad}); err == nil {
		t.Error("ValidateAll accepted invalid spec")
	}
}

func TestDeps(t *testing.T) {
	s := Spec{
		ID: 1,
		Stages: []StageSpec{
			{Name: "a", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}},
			{Name: "b", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}},
			{Name: "c", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}, DependsOn: []int{0}},
			{Name: "d", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}, DependsOn: []int{}},
		},
	}
	if got := s.Deps(0); got != nil {
		t.Errorf("Deps(0) = %v, want nil (root)", got)
	}
	if got := s.Deps(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("Deps(1) = %v, want linear default [0]", got)
	}
	if got := s.Deps(2); len(got) != 1 || got[0] != 0 {
		t.Errorf("Deps(2) = %v, want explicit [0]", got)
	}
	if got := s.Deps(3); got == nil || len(got) != 0 {
		t.Errorf("Deps(3) = %v, want explicit empty (root)", got)
	}
}

func TestValidateDAGEdges(t *testing.T) {
	base := func() Spec {
		return Spec{
			ID: 1,
			Stages: []StageSpec{
				{Name: "a", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}},
				{Name: "b", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}},
			},
		}
	}
	s := base()
	s.Stages[1].DependsOn = []int{-1}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("negative dep: %v", err)
	}
	s = base()
	s.Stages[1].DependsOn = []int{1}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Errorf("self dep: %v", err)
	}
	// Three-stage cycle through explicit deps.
	s = base()
	s.Stages = append(s.Stages, StageSpec{
		Name: "c", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}, DependsOn: []int{1},
	})
	s.Stages[0].DependsOn = []int{2}
	s.Stages[1].DependsOn = []int{0}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle: %v", err)
	}
	// Valid diamond passes.
	s = base()
	s.Stages = append(s.Stages,
		StageSpec{Name: "c", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}, DependsOn: []int{0}},
		StageSpec{Name: "d", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}, DependsOn: []int{1, 2}},
	)
	if err := s.Validate(); err != nil {
		t.Errorf("diamond: %v", err)
	}
}

// TestValidateDoesNotAllocate: an ordinary job — up to stackStages stages,
// here a chain with a diamond on top, default and explicit dependencies
// mixed — validates on stack scratch alone.
func TestValidateDoesNotAllocate(t *testing.T) {
	s := Spec{ID: 1}
	for i := 0; i < stackStages; i++ {
		s.Stages = append(s.Stages, StageSpec{Name: "s", Tasks: []TaskSpec{{Duration: 1, Containers: 1}}})
	}
	s.Stages[stackStages-2].DependsOn = []int{stackStages - 4}
	s.Stages[stackStages-1].DependsOn = []int{stackStages - 3, stackStages - 2}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate on a %d-stage spec: %v allocs, want 0", stackStages, allocs)
	}
}

// TestValidateDeepChainWithoutRecursion feeds the cycle check the deepest
// graph a spec of n stages can describe: stage i depends on stage i+1, so the
// search from stage 0 is n stages deep. The goroutine stack is capped at 1 MB
// for the test — a search that recursed per stage would overflow it (fatally)
// long before 200,000 frames — so passing means the depth lives in heap
// scratch. Closing the chain into a cycle at the far end must still be found,
// and reported by naming a stage that is on it.
func TestValidateDeepChainWithoutRecursion(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	const n = 200000
	task := []TaskSpec{{Duration: 1, Containers: 1}}
	s := Spec{ID: 9, Stages: make([]StageSpec, n)}
	for i := range s.Stages {
		s.Stages[i] = StageSpec{Tasks: task, DependsOn: []int{i + 1}}
	}
	s.Stages[n-1].DependsOn = []int{}
	if err := s.Validate(); err != nil {
		t.Fatalf("%d-stage chain: %v", n, err)
	}

	s.Stages[n-1].DependsOn = []int{n / 2} // stages n/2 .. n-1 now form a cycle
	err := s.Validate()
	if err == nil {
		t.Fatal("chain closed into a cycle validated")
	}
	var id, stage int
	if _, scanErr := fmt.Sscanf(err.Error(), "job %d: stage dependency cycle through stage %d", &id, &stage); scanErr != nil {
		t.Fatalf("unexpected error %q (%v)", err, scanErr)
	}
	if id != 9 || stage < n/2 || stage >= n {
		t.Fatalf("cycle reported through stage %d of job %d, want a stage in [%d, %d) of job 9", stage, id, n/2, n)
	}
}
