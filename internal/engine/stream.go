package engine

import (
	"errors"
	"fmt"

	"lasmq/internal/dist"
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

// arrivalCursor feeds the run loop its arrival stream: Peek reports the next
// arrival time (or that the stream is exhausted, or a source error), and Pop
// consumes the peeked job. Run walks the arena's pre-sorted pending list
// (substrate.SliceCursor); RunStream pulls specs from a Source and
// materializes pooled job records on demand (substrate.StreamCursor via
// recordCursor).
type arrivalCursor = substrate.Cursor[jobState]

// jobRecord is one streaming job's pooled storage: a deep-owned copy of the
// spec (sources may reuse their buffers, and the job's view reads
// spec.Stages — TotalService — for the job's whole lifetime), plus the
// runtime state the arena slabs hold in a materialized run. Records recycle
// through a substrate.SlabPool, so a run's heap is bounded by the peak
// number of live jobs rather than the stream length.
type jobRecord struct {
	spec       job.Spec
	specStages []job.StageSpec // backing for spec.Stages
	specTasks  []job.TaskSpec  // backing for all stages' Tasks
	specInts   []int           // backing for non-empty DependsOn lists

	js     jobState
	stages []stageState
	tasks  []taskState
	ints   []int // index-list backing (activeStages, attemptIDs, readyIdx, dependents)
}

// emptyDeps marks explicit root stages in deep-copied specs: job.Spec.Deps
// distinguishes a nil DependsOn (the linear default, depend on stage i-1)
// from an empty non-nil one (an explicit root), so the copy must preserve
// empty-but-non-nil without carving zero-length slices that compare nil.
var emptyDeps = []int{}

// fillJobRecord materializes a pooled record from a streamed spec: deep-copy
// the spec into the record's own backings, then wire the runtime state over
// them exactly as the materialized arena layout does (buildJobState). The
// GrowSlab calls re-zero each slab to this job's sizes, so a recycled
// record's stale contents are never observed.
func fillJobRecord(r *jobRecord, spec *job.Spec) {
	ns := len(spec.Stages)
	nt, nd, edges := 0, 0, 0
	for si := range spec.Stages {
		nt += len(spec.Stages[si].Tasks)
		nd += len(spec.Stages[si].DependsOn)
		edges += len(spec.Deps(si))
	}

	r.spec = *spec
	r.specStages = substrate.GrowSlab(r.specStages, ns)
	r.specTasks = substrate.GrowSlab(r.specTasks, nt)
	r.specInts = substrate.GrowSlab(r.specInts, nd)
	taskOff, depOff := 0, 0
	for si := range spec.Stages {
		src := &spec.Stages[si]
		dst := &r.specStages[si]
		*dst = *src
		k := len(src.Tasks)
		copy(r.specTasks[taskOff:taskOff+k], src.Tasks)
		dst.Tasks = r.specTasks[taskOff : taskOff+k : taskOff+k]
		taskOff += k
		switch {
		case src.DependsOn == nil:
			dst.DependsOn = nil
		case len(src.DependsOn) == 0:
			dst.DependsOn = emptyDeps
		default:
			d := len(src.DependsOn)
			copy(r.specInts[depOff:depOff+d], src.DependsOn)
			dst.DependsOn = r.specInts[depOff : depOff+d : depOff+d]
			depOff += d
		}
	}
	r.spec.Stages = r.specStages[:ns:ns]

	r.stages = substrate.GrowSlab(r.stages, ns)
	r.tasks = substrate.GrowSlab(r.tasks, nt)
	r.ints = substrate.GrowSlab(r.ints, jobInts(ns, nt, edges, streamedAttemptRoom))
	intOff := 0
	carve := func(n int) []int {
		b := r.ints[intOff : intOff : intOff+n]
		intOff += n
		return b
	}
	buildJobState(&r.js, &r.spec, r.stages[:ns:ns], r.tasks[:nt:nt], carve, streamedAttemptRoom)
	r.js.rec = r
}

// resetJobRecord is the job pool's Reset hook, run as records are returned
// (and on every record when the arena is scrubbed): it zeroes the per-run
// scalar state and the copied stage specs — the only places a parked record
// references caller memory, the job's and the stages' names — while keeping
// every slice's backing capacity (fillJobRecord re-zeroes the slabs to the
// next job's exact sizes via GrowSlab, so stale slice contents are never
// observed).
func resetJobRecord(r *jobRecord) {
	r.spec = job.Spec{}
	clear(r.specStages)
	r.js = jobState{}
}

// recordCursor adapts the kernel's StreamCursor (which pools jobRecords) to
// the run loop's jobState cursor.
type recordCursor struct {
	c substrate.StreamCursor[job.Spec, jobRecord]
}

func (rc *recordCursor) Peek() (float64, bool, error) { return rc.c.Peek() }
func (rc *recordCursor) Pop() *jobState               { return &rc.c.Pop().js }

// validateStreamSpec checks one streamed spec before the run admits it: the
// same per-spec validation Run applies up front, plus the nondecreasing-
// order contract a streaming run must enforce on the fly (prev is the
// previously yielded arrival, meaningful when n > 0).
func validateStreamSpec(n int, prev float64, s *job.Spec) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if n > 0 && s.Arrival < prev {
		return fmt.Errorf("engine: source not sorted: job %d arrives at %v after %v",
			s.ID, s.Arrival, prev)
	}
	return nil
}

// sourceCursor instantiates the substrate kernel's StreamCursor for the
// engine: Peek reads one spec ahead (validating it), Pop deep-copies it into
// a pooled record.
func sourceCursor(src Source, pool *substrate.SlabPool[jobRecord]) arrivalCursor {
	return &recordCursor{c: substrate.StreamCursor[job.Spec, jobRecord]{
		Src:      src,
		Pool:     pool,
		Arrival:  func(s *job.Spec) float64 { return s.Arrival },
		Validate: validateStreamSpec,
		Wrap:     func(err error) error { return fmt.Errorf("engine: source: %w", err) },
		Fill:     fillJobRecord,
	}}
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
	s, out := newStreamSim(src, policy, cfg, each)
	defer s.release()
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
	out.Slab = s.pool.Stats()
	out.AttemptSlab = substrate.SlabStats{
		Live:     s.attemptLive,
		Peak:     s.attemptPeak,
		Recycled: s.attemptRecycled,
	}
	if s.probe != nil {
		// The job-record pool's stats, after run() has emitted the attempt
		// slab's: both are functions of the simulated run alone, so the
		// events are byte-deterministic.
		s.probe.SlabStats(s.now, out.Slab.Live, out.Slab.Peak, out.Slab.Recycled)
	}
	return out, nil
}

// newStreamSim wires a streaming sim over a pooled arena, and the result its
// finish hook accumulates into. The caller releases the sim.
func newStreamSim(src Source, policy sched.Scheduler, cfg Config, each func(JobResult)) (*sim, *StreamResult) {
	ar := arenaPool.Get().(*arena)
	ar.buildStream()
	pool := &ar.records
	out := &StreamResult{}
	s := &sim{
		cfg:       cfg,
		probe:     cfg.Probe,
		driver:    substrate.NewDriver(policy),
		adm:       substrate.NewQueue[*jobState](cfg.MaxRunningJobs),
		rng:       dist.New(cfg.Seed),
		arena:     ar,
		streaming: true,
		pool:      pool,
		cur:       sourceCursor(src, pool),
	}
	s.finish = func(js *jobState, jr JobResult) {
		out.Jobs++
		out.SumResponse += jr.ResponseTime
		out.SumService += jr.Service
		out.Attempts += jr.Attempts
		out.Failures += jr.Failures
		out.Speculative += jr.Speculative
		if each != nil {
			each(jr)
		}
	}
	s.driver.SetProbe(cfg.Probe)
	return s, out
}
