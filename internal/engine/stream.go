package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"lasmq/internal/job"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// Source streams the jobs of a workload in nondecreasing arrival order —
// the substrate kernel's Stream instantiated over the engine's structured
// job.Spec (stages, tasks, DAG dependencies), the way fluid.Source
// instantiates it over the flat trace spec. Implementations must be
// deterministic: two sources built from the same inputs must yield identical
// sequences, the property the streaming-versus-materialized differential
// tests pin.
type Source = substrate.Stream[job.Spec]

// SliceSource returns a Source that replays an in-memory workload in slice
// order (the caller must have sorted it by arrival).
func SliceSource(specs []job.Spec) Source { return substrate.SliceStream(specs) }

// jobRef is a job's spec and its workload position, which orders the running
// list: what the run's arrival cursor streams, and the head of every pending
// entry.
type jobRef struct {
	spec *job.Spec
	pos  int
}

// refArrival is the arrival cursor's Arrival hook.
func refArrival(r *jobRef) float64 { return r.spec.Arrival }

// pendingJob is an arrived job's entry in the admission backlog. A Run's
// entry points at the caller's spec in place; a RunStream's deep-copies it
// into the entry's own backings, because a source may reuse its buffers and
// the job's view reads spec.Stages (TotalService) for the job's whole
// lifetime. The entry outlives admission for that reason: it returns to its
// pool with the job's record.
type pendingJob struct {
	jobRef

	own       job.Spec
	ownStages []job.StageSpec // backing for own.Stages
	ownTasks  []job.TaskSpec  // backing for all stages' Tasks
	ownDeps   []int           // backing for non-empty DependsOn lists
}

// emptyDeps marks explicit root stages in deep-copied specs: job.Spec.Deps
// distinguishes a nil DependsOn (the linear default, depend on stage i-1)
// from an empty non-nil one (an explicit root), so the copy must preserve
// empty-but-non-nil without carving zero-length slices that compare nil.
var emptyDeps = []int{}

// copySpec points the entry at a deep copy of spec in its own backings. The
// GrowSlab calls re-zero each backing to this spec's sizes, so a recycled
// entry's stale contents are never observed.
func (p *pendingJob) copySpec(spec *job.Spec) {
	ns, nt, nd := len(spec.Stages), 0, 0
	for si := range spec.Stages {
		nt += len(spec.Stages[si].Tasks)
		nd += len(spec.Stages[si].DependsOn)
	}
	p.own = *spec
	p.ownStages = substrate.GrowSlab(p.ownStages, ns)
	p.ownTasks = substrate.GrowSlab(p.ownTasks, nt)
	p.ownDeps = substrate.GrowSlab(p.ownDeps, nd)
	taskOff, depOff := 0, 0
	for si := range spec.Stages {
		src := &spec.Stages[si]
		dst := &p.ownStages[si]
		*dst = *src
		k := len(src.Tasks)
		copy(p.ownTasks[taskOff:taskOff+k], src.Tasks)
		dst.Tasks = p.ownTasks[taskOff : taskOff+k : taskOff+k]
		taskOff += k
		switch {
		case src.DependsOn == nil:
			dst.DependsOn = nil
		case len(src.DependsOn) == 0:
			dst.DependsOn = emptyDeps
		default:
			d := len(src.DependsOn)
			copy(p.ownDeps[depOff:depOff+d], src.DependsOn)
			dst.DependsOn = p.ownDeps[depOff : depOff+d : depOff+d]
			depOff += d
		}
	}
	p.own.Stages = p.ownStages[:ns:ns]
	p.spec = &p.own
}

// resetPending is the entry pool's Reset hook, run as entries are returned
// (and on every entry when the arena is scrubbed): it drops the spec pointer
// and clears the copied job and stage names — the only caller memory a
// parked entry can reference — keeping every backing's capacity.
func resetPending(p *pendingJob) {
	p.spec = nil
	p.own = job.Spec{}
	clear(p.ownStages)
}

// feedSpecs points the arrival cursor at a validated workload: a reference to
// each spec and its index, stable-sorted by arrival when the slice is not
// already in arrival order, so each pending entry references its spec in
// place and carries its position in specs. Fresh record slabs are sized for
// the workload's largest job (see growSlab). It returns the workload's task
// count.
func (s *sim) feedSpecs(specs []job.Spec) (tasks int) {
	order := substrate.GrowSlab(s.order, len(specs))
	sorted := true
	for i := range specs {
		order[i] = jobRef{spec: &specs[i], pos: i}
		shape := shapeOf(&specs[i])
		s.room = jobShape{
			stages: max(s.room.stages, shape.stages),
			tasks:  max(s.room.tasks, shape.tasks),
			ints:   max(s.room.ints, shape.ints),
		}
		tasks += shape.tasks
		if i > 0 && specs[i].Arrival < specs[i-1].Arrival {
			sorted = false
		}
	}
	if !sorted {
		slices.SortStableFunc(order, func(a, b jobRef) int { return cmp.Compare(a.spec.Arrival, b.spec.Arrival) })
	}
	s.order = order
	s.cur.Src = substrate.SliceStream(order)
	s.cur.Fill = func(p *pendingJob, r *jobRef) { p.jobRef = *r }
	return tasks
}

// feedSource points the arrival cursor at a Source: each spec is read and
// validated one ahead (validateStreamRef), then deep-copied into its pending
// entry.
func (s *sim) feedSource(src Source) {
	s.cur.Src = &sourceRefs{src: src}
	s.cur.Validate = validateStreamRef
	s.cur.Wrap = func(err error) error { return fmt.Errorf("engine: source: %w", err) }
	s.cur.Fill = func(p *pendingJob, r *jobRef) {
		p.pos = r.pos
		p.copySpec(r.spec)
	}
}

// sourceRefs streams a Source as jobRefs in arrival order: each reference
// points at the spec just read, held in the adapter's one-spec buffer. The
// cursor reads the next spec only after the job's entry has deep-copied this
// one, so the buffer is never overwritten while a reference to it is live.
type sourceRefs struct {
	src     Source
	spec    job.Spec
	arrived int
}

func (r *sourceRefs) Next() (jobRef, bool, error) {
	var ok bool
	var err error
	r.spec, ok, err = r.src.Next()
	if !ok || err != nil {
		return jobRef{}, false, err
	}
	r.arrived++
	return jobRef{spec: &r.spec, pos: r.arrived - 1}, true, nil
}

// validateStreamRef checks one streamed spec before the run admits it: the
// same per-spec validation Run applies up front, plus the nondecreasing-
// order contract a streaming run must enforce on the fly (prev is the
// previously yielded arrival, meaningful when n > 0).
func validateStreamRef(n int, prev float64, r *jobRef) error {
	s := r.spec
	if err := s.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if n > 0 && s.Arrival < prev {
		return fmt.Errorf("engine: source not sorted: job %d arrives at %v after %v",
			s.ID, s.Arrival, prev)
	}
	return nil
}

// StreamResult reports a streaming engine run. Unlike Result it holds no
// per-job slice or timeline — an arbitrarily long run keeps running
// aggregates only; per-job records flow through RunStream's callback as jobs
// complete. SumResponse accumulates in completion order (deterministic for a
// given seeded run), not workload order, so its last-ulp value may differ
// from a materialized Result's workload-order sum; the differential tests
// compare the per-job outcomes, which are byte-identical.
type StreamResult struct {
	// Scheduler is the policy name (sched.Scheduler.Name).
	Scheduler string
	// Jobs is the number of completed jobs.
	Jobs int
	// Makespan is the completion time of the last job.
	Makespan float64
	// Utilization is the time-averaged fraction of containers busy over the
	// makespan: Busy / (Makespan * Containers).
	Utilization float64
	// Busy is the integral of busy containers over time (container-seconds of
	// work actually executed, including failed and killed attempts). It is
	// kept explicit, not just folded into Utilization, so sharded runs can
	// fold per-shard results exactly: total busy over the global makespan.
	Busy float64
	// PeakUsage is the maximum number of containers simultaneously busy.
	PeakUsage int
	// SumResponse and SumService accumulate per-job response times and
	// consumed container-seconds in completion order.
	SumResponse float64
	SumService  float64
	// Attempts, Failures and Speculative total the per-job attempt counters.
	Attempts    int
	Failures    int
	Speculative int
	// Slab reports the job-record free list: peak live jobs bounds the run's
	// state memory, recycled counts mid-run record reuses. Live counts
	// records still held at exit (jobs whose killed copies' completion
	// events never drained).
	Slab substrate.SlabStats
	// AttemptSlab reports the attempt free list the same way (the stats Run
	// emits through obs.Probe.SlabStats).
	AttemptSlab substrate.SlabStats
}

// MeanResponseTime is the average job response time; 0 with no jobs.
func (r *StreamResult) MeanResponseTime() float64 {
	if r.Jobs == 0 {
		return 0
	}
	return r.SumResponse / float64(r.Jobs)
}

// RunStream simulates a streamed workload under the given policy. The source
// must yield jobs in nondecreasing arrival order (an unsorted stream is an
// error — a streaming run cannot sort what it has not read). Completed jobs
// are reported through each (in completion order) when non-nil, and their
// records return to a free-list pool, so peak memory is bounded by the jobs
// live at once, not the stream length. The scheduler instance must be fresh.
// Unlike Run, duplicate job IDs are detected only while both jobs are live,
// and Config.SampleInterval is ignored (no timeline is kept).
func RunStream(src Source, policy sched.Scheduler, cfg Config, each func(JobResult)) (*StreamResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("engine: nil scheduler")
	}
	if src == nil {
		return nil, errors.New("engine: nil source")
	}
	out := &StreamResult{}
	cfg.SampleInterval = 0 // no timeline is kept
	s := newSim(policy, cfg, func(_ *jobState, jr JobResult) {
		out.Jobs++
		out.SumResponse += jr.ResponseTime
		out.SumService += jr.Service
		out.Attempts += jr.Attempts
		out.Failures += jr.Failures
		out.Speculative += jr.Speculative
		if each != nil {
			each(jr)
		}
	})
	defer s.release()
	s.feedSource(src)
	if err := s.run(); err != nil {
		return nil, err
	}
	out.Scheduler = s.driver.Name()
	out.Makespan = s.makespan
	out.Busy = s.busyIntegral
	if s.makespan > 0 {
		out.Utilization = out.Busy / (s.makespan * float64(s.cfg.Containers))
	}
	out.PeakUsage = s.peakUsage
	out.Slab = s.records.Stats()
	out.AttemptSlab = s.attemptSlab
	if s.probe != nil {
		// The job-record pool's stats, after run() has emitted the attempt
		// slab's: both are functions of the simulated run alone, so the
		// events are byte-deterministic.
		s.probe.SlabStats(s.now, out.Slab.Live, out.Slab.Peak, out.Slab.Recycled)
	}
	return out, nil
}
