// Package fluid is the event-driven fluid simulator used for the paper's
// trace-driven evaluation (24,443-job Facebook-like trace, 10,000-job uniform
// workload). Jobs are malleable service demands with a parallelism cap
// (width); the scheduler assigns fractional container shares, and between
// scheduling points every job's attained service grows linearly, so job
// completions and policy change points (LAS catch-ups, LAS_MQ threshold
// crossings, via sched.Hinter) are computed exactly instead of stepping a
// fine-grained quantum.
//
// Unlike the task-level engine, fluid jobs have no stage structure, so the
// stage-aware estimate equals the exactly attained service — matching the
// paper's simulations, which exercise the basic multilevel-queue mechanism.
package fluid

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// JobSpec describes one trace job — an alias of the substrate streaming
// kernel's canonical spec type (see substrate.JobSpec for the field docs).
type JobSpec = substrate.JobSpec

// Config parameterizes a fluid run.
type Config struct {
	// Capacity is the cluster capacity in containers.
	Capacity float64
	// TaskDuration is the nominal per-task duration used to derive the
	// container demand of a job's remaining work: demand =
	// min(width, ceil(remaining/TaskDuration)). Default 1.
	TaskDuration float64
	// MaxStep caps event-free time advancement; 0 means unlimited (safe
	// because policies publish change points via sched.Hinter).
	MaxStep float64
	// MaxRunningJobs bounds concurrently running jobs, mirroring the paper's
	// admission module; 0 means unlimited (the trace simulations' setting).
	MaxRunningJobs int
	// Probe, when non-nil, receives telemetry events (see internal/obs).
	// Attached probes never perturb results; a nil probe costs nothing.
	Probe obs.Probe
}

// DefaultConfig returns the heavy-tailed trace configuration: 100 containers,
// unit task duration, no admission limit.
func DefaultConfig() Config {
	return Config{Capacity: 100, TaskDuration: 1}
}

func (c *Config) validate() error {
	if !finite(c.Capacity) || c.Capacity <= 0 {
		return fmt.Errorf("fluid: capacity must be positive and finite, got %v", c.Capacity)
	}
	if !finite(c.TaskDuration) || c.TaskDuration < 0 {
		return fmt.Errorf("fluid: task duration must be finite and >= 0, got %v", c.TaskDuration)
	}
	if !finite(c.MaxStep) || c.MaxStep < 0 {
		return fmt.Errorf("fluid: max step must be finite and >= 0, got %v", c.MaxStep)
	}
	if c.MaxRunningJobs < 0 {
		return fmt.Errorf("fluid: max running jobs must be >= 0, got %v", c.MaxRunningJobs)
	}
	return nil
}

// JobResult reports one finished job.
type JobResult struct {
	ID           int
	Arrival      float64
	Completed    float64
	ResponseTime float64
	Size         float64
	Width        float64
	// Slowdown is response time divided by the job's isolated runtime
	// (size / min(width, capacity)).
	Slowdown float64
}

// Result reports a whole fluid run. The embedded kernel accumulator
// provides Scheduler, Makespan, Utilization and the response-time/slowdown
// statistics (MeanResponseTime, ResponseTimes, Slowdowns), recorded in
// trace order.
type Result struct {
	substrate.Result
	Jobs []JobResult
	// Rounds is the number of scheduling rounds executed (instrumentation).
	Rounds int
}

type fluidJob struct {
	spec     JobSpec
	seq      int
	slot     int32 // the view registry's handle for this job, held while active
	attained float64
	rate     float64
	view     jobView // embedded adapter, reused across rounds
}

func (j *fluidJob) remaining() float64 { return j.spec.Size - j.attained }

func (j *fluidJob) finished() bool {
	return j.remaining() <= 1e-9*max(1, j.spec.Size)
}

// jobView adapts fluidJob to sched.JobView with the run's demand granularity.
type jobView struct {
	j            *fluidJob
	taskDuration float64
}

var (
	_ sched.JobView    = (*jobView)(nil)
	_ sched.ExactSizer = (*jobView)(nil)
)

func (v *jobView) ID() int           { return v.j.spec.ID }
func (v *jobView) Seq() int          { return v.j.seq }
func (v *jobView) Priority() int     { return v.j.spec.Priority }
func (v *jobView) Attained() float64 { return v.j.attained }

// Estimated equals Attained: fluid jobs have no stage structure to project.
func (v *jobView) Estimated() float64 { return v.j.attained }

func (v *jobView) demand() float64 {
	rem := v.j.remaining()
	if rem <= 0 {
		return 0
	}
	tasks := rem
	if v.taskDuration > 0 {
		tasks = math.Ceil(rem / v.taskDuration)
	}
	return min(v.j.spec.Width, tasks)
}

func (v *jobView) ReadyDemand() float64     { return v.demand() }
func (v *jobView) RemainingDemand() float64 { return v.demand() }

func (v *jobView) SizeHint() float64 {
	if v.j.spec.SizeHint > 0 {
		return v.j.spec.SizeHint
	}
	return v.j.spec.Size
}

func (v *jobView) RemainingSizeHint() float64 {
	rem := v.SizeHint() - v.j.attained
	if rem < 0 {
		return 0
	}
	return rem
}

// ExactRemaining implements sched.ExactSizer: the true remaining service,
// independent of any SizeHint perturbation — the clairvoyant input SRPT
// needs.
func (v *jobView) ExactRemaining() float64 {
	rem := v.j.remaining()
	if rem < 0 {
		return 0
	}
	return rem
}

// Run simulates the trace under the given policy and reports the jobs in the
// caller's slice order, whatever order they arrive in. The scheduler instance
// must be fresh.
//
// Run is a collector over the streaming path: it checks the trace once (every
// spec, and that no two share an ID — the ID is how a completion finds its
// slot), streams it — through a copy stable-sorted by arrival when the slice
// is not already in arrival order — and writes each job's outcome where the
// job stood in specs. The statistics are then folded in that order, so the
// floating-point sums behind MeanResponseTime do not depend on completion
// order.
func Run(specs []JobSpec, policy sched.Scheduler, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("fluid: nil scheduler")
	}
	index := make(map[int]int, len(specs))
	sorted := true
	for i := range specs {
		sp := &specs[i]
		if err := validateSpec(sp); err != nil {
			return nil, err
		}
		if _, dup := index[sp.ID]; dup {
			return nil, fmt.Errorf("fluid: duplicate job ID %d", sp.ID)
		}
		index[sp.ID] = i
		if i > 0 && sp.Arrival < specs[i-1].Arrival {
			sorted = false
		}
	}
	feed := specs
	if !sorted {
		feed = slices.Clone(specs)
		slices.SortStableFunc(feed, func(x, y JobSpec) int { return cmp.Compare(x.Arrival, y.Arrival) })
	}

	res := &Result{Jobs: make([]JobResult, len(specs))}
	res.Reserve(len(specs))
	// Slowdown is fluid-derived state, not a probe event, so it reaches the
	// histogram sink through its side-channel, at each completion.
	hist, _ := obs.Find[*obs.Histograms](cfg.Probe)
	s := newSim(SliceSource(feed), policy, cfg, func(jr JobResult) {
		res.Jobs[index[jr.ID]] = jr
		if hist != nil {
			hist.ObserveSlowdown(jr.Slowdown)
		}
	})
	if s.probe != nil {
		s.probe.ArenaReuse(len(specs), 0, s.reused)
	}
	out, err := s.stream()
	if err != nil {
		return nil, err
	}
	res.Scheduler = out.Scheduler
	res.Makespan = out.Makespan
	res.Utilization = out.Utilization
	res.Rounds = out.Rounds
	for i := range res.Jobs {
		res.Record(0, res.Jobs[i].ResponseTime)
		res.RecordSlowdown(res.Jobs[i].Slowdown)
	}
	return res, nil
}

// arena is the run state that outlives a run: the job-record pool, the
// active-job, served-view and completed-view lists and the view registry keep
// their backing storage, the lists grown from substrate.Grow's floor. Arenas
// are pooled, so repeated runs on one worker — the policies of a sweep, the
// seeds of a replication, the shards one worker advances — reuse the records
// earlier runs carved instead of allocating one per live job per run.
type arena struct {
	// jobs recycles the fluidJob records: a run holds only the jobs that are
	// live at once. scrub rewinds it, so each run reads a fresh pool's Stats.
	jobs substrate.SlabPool[fluidJob]
	// active lists the admitted jobs that have not completed, in admission
	// order; vs registers their views in the same order, so the i-th view is
	// active[i]'s. It is a window on activeBase (see substrate.Room).
	active, activeBase []*fluidJob
	// served lists, ascending, the views a round visits — those the policy
	// served and those admitted since the previous round — and, once the
	// round has advanced, those of them it served that are still active,
	// re-indexed past the completed views, which gone lists.
	served, gone []int32
	vs           substrate.ViewSet
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// scrub takes back every record the finished run still held and drops the
// arena's pointers to them, keeping the backing storage. A fluidJob holds no
// caller memory (the spec is copied by value), so nothing else needs zeroing.
func (a *arena) scrub() {
	a.jobs.Rewind()
	clear(a.active)
	a.active = a.active[:0]
	a.served = a.served[:0]
	a.gone = a.gone[:0]
	a.vs.Reset()
}

// sim is one fluid run: the kernel modules (policy driver, admission queue,
// arrival cursor, view registry) plus the fluid-specific state — continuous
// time, fractional rates, and exact event computation. The embedded arena
// holds the pooled job records and the reused per-run storage.
type sim struct {
	cfg    Config
	probe  obs.Probe
	driver *substrate.Driver
	adm    *substrate.Queue[*fluidJob]
	*arena
	reused bool // the arena has carried a run before (Run's ArenaReuse event)

	// cur reads the source one spec ahead, validating it, and materializes
	// the job record from the arena's pool when the loop pops the arrival.
	cur  substrate.StreamCursor[JobSpec, fluidJob]
	each func(JobResult) // per-completion sink, may be nil
	out  *StreamResult   // accumulated in place as the run advances
	now  float64

	// fresh counts the jobs admitted since the previous round, the tail of
	// the active list.
	fresh int
}

// newSim wires a run over a pooled arena. The caller must stream (or
// release) it.
func newSim(src Source, policy sched.Scheduler, cfg Config, each func(JobResult)) *sim {
	ar := arenaPool.Get().(*arena)
	s := &sim{
		cfg:    cfg,
		probe:  cfg.Probe,
		driver: substrate.NewDriver(policy),
		adm:    substrate.NewQueue[*fluidJob](cfg.MaxRunningJobs),
		arena:  ar,
		reused: cap(ar.active) > 0,
		each:   each,
		out:    &StreamResult{},
	}
	taskDuration := cfg.TaskDuration
	s.cur = substrate.StreamCursor[JobSpec, fluidJob]{
		Src:      src,
		Pool:     &ar.jobs,
		Arrival:  func(spec *JobSpec) float64 { return spec.Arrival },
		Validate: validateStreamSpec,
		Wrap:     func(err error) error { return fmt.Errorf("fluid: source: %w", err) },
		Fill: func(j *fluidJob, spec *JobSpec) {
			j.spec = *spec
			j.view.j = j
			j.view.taskDuration = taskDuration
		},
	}
	s.driver.SetProbe(cfg.Probe)
	return s
}

// release scrubs the sim's arena and returns it to the pool. The sim must
// not be used afterwards.
func (s *sim) release() {
	ar := s.arena
	s.arena = nil
	ar.scrub()
	arenaPool.Put(ar)
}

// stream runs the sim to completion, releases it, and reports the run.
func (s *sim) stream() (*StreamResult, error) {
	defer s.release()
	if err := s.run(); err != nil {
		return nil, err
	}
	out := s.out
	out.Scheduler = s.driver.Name()
	if out.Makespan > 0 {
		out.Utilization = out.Delivered / (out.Makespan * s.cfg.Capacity)
	}
	out.Slab = s.jobs.Stats()
	if s.probe != nil {
		s.probe.SlabStats(s.now, out.Slab.Live, out.Slab.Peak, out.Slab.Recycled)
	}
	return out, nil
}

// admit releases waiting jobs while the admission limit allows; released
// jobs join the active set with their kernel-issued sequence number, and
// their views the registration, behind the others.
func (s *sim) admit() {
	// Room for every job the queue can release now: a batch arrival grows the
	// active list and the registration once.
	n := s.adm.Waiting()
	if limit := s.cfg.MaxRunningJobs; limit > 0 {
		n = min(n, limit-s.adm.Running())
	}
	s.active = substrate.Room(&s.activeBase, s.active, len(s.active)+n)
	s.vs.Reserve(len(s.active) + n)
	s.adm.Admit(func(j *fluidJob, seq int) {
		j.seq = seq
		j.slot = s.vs.TakeSlot()
		s.active = append(s.active, j)
		s.vs.AddSlot(&j.view, j.slot)
		s.fresh++
		if s.probe != nil {
			s.probe.JobAdmitted(s.now, j.spec.ID, max(0, s.now-j.spec.Arrival))
		}
	})
}

func (s *sim) run() error {
	capacity := s.cfg.Capacity
	out := s.out
	for {
		// Admit arrivals due by now.
		for {
			t, ok, err := s.cur.Peek()
			if err != nil {
				return err
			}
			if !ok || t > s.now+1e-12 {
				break
			}
			j := s.cur.Pop()
			s.adm.Push(j)
			if s.probe != nil {
				s.probe.JobSubmitted(s.now, j.spec.ID)
			}
		}
		s.admit()

		if len(s.active) == 0 {
			// Idle: tell the policy of the departures that emptied the
			// cluster, then jump to the next arrival.
			s.driver.Observe(s.now, &s.vs)
			t, ok, err := s.cur.Peek()
			if err != nil {
				return err
			}
			if !ok {
				if s.adm.Waiting() > 0 {
					return s.adm.Stuck("fluid")
				}
				break
			}
			if t > s.now {
				s.now = t
			}
			continue
		}

		// Tell the policy which jobs moved since its previous call: those it
		// served, then those admitted since, the tail of the active list. A
		// job the policy did not serve kept its attained service and demands.
		for _, i := range s.served {
			s.vs.MarkChanged(int(i))
		}
		first := len(s.active) - s.fresh
		for i := first; i < len(s.active); i++ {
			s.vs.MarkChanged(i)
		}
		s.fresh = 0
		// shares[i] is the share of s.active[i]; served lists the nonzero ones.
		shares := s.driver.Shares(s.now, capacity, &s.vs)
		served := s.vs.Served()
		out.Rounds++

		// The round visits, in view order, the jobs with a share and those
		// just admitted, which may be finished on arrival: the served list
		// below first, then the tail. Rates are defensively capped by width.
		// Every other job adds x + 0·dt to its attained service and nothing
		// to Delivered, so skipping it changes no bits.
		visit := substrate.Grow(s.served[:0], min(len(served), first)+len(s.active)-first)
		for _, i := range served {
			if int(i) >= first {
				break
			}
			visit = append(visit, i)
		}
		for i := first; i < len(s.active); i++ {
			visit = append(visit, int32(i))
		}
		for _, i := range visit {
			j, x := s.active[i], shares[i]
			if math.IsNaN(x) {
				return fmt.Errorf("fluid: %s gave job %d a NaN share at t=%v", s.driver.Name(), j.spec.ID, s.now)
			}
			j.rate = min(x, j.spec.Width)
			if j.rate < 0 {
				j.rate = 0
			}
		}

		// Next event: arrival, earliest completion, policy horizon, step cap.
		next := math.Inf(1)
		if t, ok, err := s.cur.Peek(); err != nil {
			return err
		} else if ok {
			next = t
		}
		for _, i := range visit {
			if j := s.active[i]; j.rate > 0 {
				if t := s.now + j.remaining()/j.rate; t < next {
					next = t
				}
			}
		}
		if h := s.driver.Horizon(s.now, &s.vs); h < next {
			next = h
		}
		if s.cfg.MaxStep > 0 && s.now+s.cfg.MaxStep < next {
			next = s.now + s.cfg.MaxStep
		}
		if math.IsInf(next, 1) || next <= s.now {
			var total float64
			for _, i := range served {
				total += shares[i]
			}
			return fmt.Errorf("fluid: no progress at t=%v with %d active jobs (total rate %v)",
				s.now, len(s.active), total)
		}

		// Advance time and service; the served jobs that stay active are the
		// ones the next round tells the policy about.
		dt := next - s.now
		s.now = next
		kept, gone := visit[:0], substrate.Grow(s.gone[:0], len(visit))
		for _, i := range visit {
			j := s.active[i]
			out.Delivered += j.rate * dt
			j.attained += j.rate * dt
			if j.attained > j.spec.Size {
				j.attained = j.spec.Size
			}
			if !j.finished() {
				if shares[i] != 0 {
					kept = append(kept, i)
				}
				continue
			}
			s.adm.Done()
			iso := j.spec.Size / min(j.spec.Width, capacity)
			response := s.now - j.spec.Arrival
			jr := JobResult{
				ID:           j.spec.ID,
				Arrival:      j.spec.Arrival,
				Completed:    s.now,
				ResponseTime: response,
				Size:         j.spec.Size,
				Width:        j.spec.Width,
				Slowdown:     response / iso,
			}
			if s.now > out.Makespan {
				out.Makespan = s.now
			}
			if s.probe != nil {
				s.probe.JobDone(s.now, j.spec.ID, response)
			}
			out.Jobs++
			out.SumResponse += jr.ResponseTime
			out.SumSlowdown += jr.Slowdown
			if s.each != nil {
				s.each(jr)
			}
			s.vs.FreeSlot(j.slot)
			s.jobs.Put(j)
			gone = append(gone, i)
		}
		// Cut the completed jobs out of the active list and the registration,
		// keeping the rest in order, and re-index the served ones past them.
		s.served, s.gone = kept, gone
		if len(gone) > 0 {
			s.active = substrate.Cut(s.active, gone)
			s.vs.Cut(gone)
			k := 0
			for n, i := range kept {
				for k < len(gone) && gone[k] < i {
					k++
				}
				kept[n] = i - int32(k)
			}
		}
	}
	return nil
}
