// Package job defines the static description of data-processing jobs used by
// the task-level cluster simulator: jobs consist of stages, stages consist
// of tasks, and tasks occupy a fixed number of containers for a duration.
//
// By default stages form a chain — stage i+1 only starts once stage i has
// completed, like Hadoop's map→reduce (the paper does not consider stage
// overlap within a dependency). Spark-style jobs can instead declare an
// arbitrary stage DAG via StageSpec.DependsOn; independent stages then run
// concurrently, exactly as Spark schedules independent RDD lineage branches.
package job

import (
	"fmt"
	"math"
)

// TaskSpec describes one task of a stage.
type TaskSpec struct {
	// Duration is the nominal running time of the task in seconds.
	Duration float64
	// Containers is the number of containers the task occupies while running
	// (the paper's implementation uses 1 for map tasks and 2 for reduce
	// tasks, since reduce tasks get 4 GB against the 2 GB container unit).
	Containers int
}

// StageSpec describes one stage of a job.
type StageSpec struct {
	// Name labels the stage (e.g. "map", "reduce").
	Name string
	// Tasks are the stage's tasks. All must be present before the stage can
	// complete.
	Tasks []TaskSpec
	// DependsOn lists the indices of stages that must complete before this
	// stage starts. nil means the linear default: the previous stage (none
	// for stage 0). An explicit empty slice ([]int{}) declares a root stage
	// with no dependencies.
	DependsOn []int
}

// Deps resolves the effective dependencies of stage i in the spec: the
// explicit DependsOn when set, otherwise the linear default.
func (s *Spec) Deps(i int) []int {
	st := &s.Stages[i]
	if st.DependsOn != nil {
		return st.DependsOn
	}
	if i == 0 {
		return nil
	}
	return []int{i - 1}
}

// Service returns the total service of the stage in container-seconds.
func (s *StageSpec) Service() float64 {
	var total float64
	for _, t := range s.Tasks {
		total += t.Duration * float64(t.Containers)
	}
	return total
}

// Spec describes a job to be submitted to the simulated cluster.
type Spec struct {
	// ID uniquely identifies the job within a workload.
	ID int
	// Name is the benchmark name (e.g. "WordCount").
	Name string
	// Bin is the input-size bin (1..4 in the paper's Table I); purely a
	// reporting label.
	Bin int
	// Priority is the job priority in [1,5]; only the Fair scheduler uses it.
	Priority int
	// Arrival is the submission time in seconds.
	Arrival float64
	// SizeHint is the a priori size estimate available to the SJF/SRTF
	// baselines, in container-seconds. Zero means "use the true total
	// service". Experiments perturb it to model estimation error.
	SizeHint float64
	// Stages are executed sequentially.
	Stages []StageSpec
}

// TotalService returns the exact total service of the job in
// container-seconds (the paper's notion of job size).
func (s *Spec) TotalService() float64 {
	var total float64
	for i := range s.Stages {
		total += s.Stages[i].Service()
	}
	return total
}

// TotalTasks returns the number of tasks across all stages.
func (s *Spec) TotalTasks() int {
	n := 0
	for i := range s.Stages {
		n += len(s.Stages[i].Tasks)
	}
	return n
}

// EffectiveSizeHint returns SizeHint, defaulting to the true total service.
func (s *Spec) EffectiveSizeHint() float64 {
	if s.SizeHint > 0 {
		return s.SizeHint
	}
	return s.TotalService()
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate checks that the spec can be simulated. Non-finite inputs are
// rejected by name: a NaN arrival or duration would otherwise run to a NaN
// or infinite answer without an error.
func (s *Spec) Validate() error {
	if !finite(s.Arrival) {
		return fmt.Errorf("job %d: non-finite arrival %v", s.ID, s.Arrival)
	}
	if s.Arrival < 0 {
		return fmt.Errorf("job %d: negative arrival %v", s.ID, s.Arrival)
	}
	if !finite(s.SizeHint) {
		return fmt.Errorf("job %d: non-finite size hint %v", s.ID, s.SizeHint)
	}
	if len(s.Stages) == 0 {
		return fmt.Errorf("job %d: no stages", s.ID)
	}
	for si := range s.Stages {
		st := &s.Stages[si]
		if len(st.Tasks) == 0 {
			return fmt.Errorf("job %d stage %d (%s): no tasks", s.ID, si, st.Name)
		}
		for ti, task := range st.Tasks {
			if !finite(task.Duration) {
				return fmt.Errorf("job %d stage %d task %d: non-finite duration %v",
					s.ID, si, ti, task.Duration)
			}
			if task.Duration <= 0 {
				return fmt.Errorf("job %d stage %d task %d: non-positive duration %v",
					s.ID, si, ti, task.Duration)
			}
			if task.Containers <= 0 {
				return fmt.Errorf("job %d stage %d task %d: non-positive containers %d",
					s.ID, si, ti, task.Containers)
			}
		}
		for _, dep := range st.DependsOn {
			if dep < 0 || dep >= len(s.Stages) {
				return fmt.Errorf("job %d stage %d: dependency %d out of range", s.ID, si, dep)
			}
			if dep == si {
				return fmt.Errorf("job %d stage %d: depends on itself", s.ID, si)
			}
		}
	}
	if err := s.checkAcyclic(); err != nil {
		return err
	}
	return nil
}

// stackStages is the stage count up to which checkAcyclic's scratch lives on
// the stack, so validating an ordinary job allocates nothing.
const stackStages = 16

// checkAcyclic verifies the stage dependency graph has no cycles, so every
// stage can eventually run. It is a depth-first search over an explicit
// stack: the depth a hostile spec can reach is bounded by its stage count in
// heap scratch, never by the goroutine stack.
func (s *Spec) checkAcyclic() error {
	const (
		unvisited = iota
		visiting
		done
	)
	// frame is one stage on the search path and the index of the next of its
	// dependencies to follow.
	type frame struct{ stage, next int }
	var (
		stateBuf [stackStages]uint8
		pathBuf  [stackStages]frame
	)
	n := len(s.Stages)
	state, path := stateBuf[:], pathBuf[:0]
	if n > stackStages {
		// A stage is on the path at most once, so n frames always suffice.
		state, path = make([]uint8, n), make([]frame, 0, n)
	}
	for root := range s.Stages {
		if state[root] != unvisited {
			continue
		}
		state[root] = visiting
		path = append(path, frame{stage: root})
		for len(path) > 0 {
			top := &path[len(path)-1]
			deps := s.Deps(top.stage)
			if top.next == len(deps) {
				state[top.stage] = done
				path = path[:len(path)-1]
				continue
			}
			dep := deps[top.next]
			top.next++
			switch state[dep] {
			case visiting:
				return fmt.Errorf("job %d: stage dependency cycle through stage %d", s.ID, dep)
			case unvisited:
				state[dep] = visiting
				path = append(path, frame{stage: dep})
			}
		}
	}
	return nil
}

// ValidateAll validates a whole workload and checks job IDs are unique.
func ValidateAll(specs []Spec) error {
	seen := make(map[int]bool, len(specs))
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return err
		}
		if seen[specs[i].ID] {
			return fmt.Errorf("duplicate job ID %d", specs[i].ID)
		}
		seen[specs[i].ID] = true
	}
	return nil
}
