// Package engine is the task-level discrete-event cluster simulator — the
// YARN substrate the paper's scheduler plugs into. It models a cluster as a
// pool of identical containers, runs jobs stage by stage (reduce tasks only
// start once the map stage completes), feeds schedulers the exact inputs the
// paper's implementation observes (attained service, stage progress,
// remaining-task container demand), and mirrors the implementation section's
// architecture: a job-admission module bounding concurrently running jobs,
// task-status monitoring that counts only successful task attempts, and
// work-conserving leftover allocation with optional speculative execution.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"lasmq/internal/dist"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// Config parameterizes a simulation run.
type Config struct {
	// Containers is the cluster capacity (the paper's testbed starts up to
	// 120 containers of 1 vcore / 2 GB).
	Containers int
	// MaxRunningJobs bounds concurrently running jobs (the paper's job
	// admission module; 30 in the experiments). Zero means unlimited.
	MaxRunningJobs int
	// FailureProb is the probability that a task attempt fails after
	// consuming part of its duration; failed tasks are re-queued, and their
	// consumed container time still counts toward attained service (the
	// paper's status monitor filters unsuccessful attempts out of the
	// remaining-task counters only).
	FailureProb float64
	// StragglerProb is the probability that an attempt is a straggler.
	StragglerProb float64
	// StragglerFactor multiplies a straggler attempt's duration (> 1).
	StragglerFactor float64
	// Speculation launches duplicate copies of running tasks on leftover
	// containers (the paper's work-conservation remark); whichever attempt
	// finishes first completes the task and the other copy is killed.
	Speculation bool
	// Seed drives failure and straggler sampling.
	Seed int64
	// FullReschedule disables the incremental fast paths and re-invokes the
	// policy on every scheduling round, as the engine originally did. The
	// default (false) skips rounds that provably cannot launch a task —
	// keeping stateful policies' internal clocks in sync via sched.Observer —
	// and must produce byte-identical results; it exists as an escape hatch
	// and for the differential tests that prove the equivalence.
	FullReschedule bool
	// Probe, when non-nil, receives telemetry events (see internal/obs). A
	// nil probe costs nothing on the hot path, and an attached probe must
	// not perturb results — probed and unprobed runs are byte-identical.
	Probe obs.Probe
}

// DefaultConfig returns the paper's testbed configuration with failures,
// stragglers and speculation disabled.
func DefaultConfig() Config {
	return Config{
		Containers:      120,
		MaxRunningJobs:  30,
		StragglerFactor: 3,
	}
}

func (c *Config) validate() error {
	if c.Containers <= 0 {
		return fmt.Errorf("engine: containers must be positive, got %d", c.Containers)
	}
	if c.MaxRunningJobs < 0 {
		return fmt.Errorf("engine: max running jobs must be >= 0, got %d", c.MaxRunningJobs)
	}
	// Every float check is written so that NaN fails it: a NaN probability
	// would pass a pair of < and > tests and then never (or always) fire.
	if !(c.FailureProb >= 0 && c.FailureProb < 1) {
		return fmt.Errorf("engine: failure probability must be in [0,1), got %v", c.FailureProb)
	}
	if !(c.StragglerProb >= 0 && c.StragglerProb <= 1) {
		return fmt.Errorf("engine: straggler probability must be in [0,1], got %v", c.StragglerProb)
	}
	if math.IsNaN(c.StragglerFactor) || math.IsInf(c.StragglerFactor, 0) {
		return fmt.Errorf("engine: straggler factor must be finite, got %v", c.StragglerFactor)
	}
	if c.StragglerProb > 0 && c.StragglerFactor <= 1 {
		return fmt.Errorf("engine: straggler factor must be > 1, got %v", c.StragglerFactor)
	}
	return nil
}

// JobResult reports one finished job.
type JobResult struct {
	ID           int
	Name         string
	Bin          int
	Arrival      float64 // submission time
	Admitted     float64 // time the admission module released the job
	Completed    float64 // completion time
	ResponseTime float64 // Completed - Arrival
	Service      float64 // container-seconds consumed (incl. failed/killed attempts)
	Attempts     int     // task attempts launched
	Failures     int     // failed attempts
	Speculative  int     // speculative attempts launched
}

// Result reports a whole simulation run. The embedded kernel accumulator
// provides Scheduler, Makespan, Utilization and the response-time/slowdown
// statistics (MeanResponseTime, ResponseTimes, BinMeans), recorded in
// workload order.
type Result struct {
	substrate.Result
	Jobs []JobResult
	// PeakUsage is the maximum number of containers simultaneously busy.
	PeakUsage int
}

// Run simulates the workload under the given scheduling policy and returns
// per-job results in the caller's slice order, whatever order the jobs
// arrive in. The scheduler instance must be fresh (stateful policies such as
// LAS_MQ remember queue membership between rounds).
//
// Run is a collector over the loop RunStream drives: it checks the workload
// once (every spec, and that no two share an ID), streams references to its
// specs in arrival order (see feedSpecs), and writes each job's outcome where
// the job stood in specs. The statistics are then folded in that order, so the
// floating-point sums behind MeanResponseTime do not depend on completion
// order.
func Run(specs []job.Spec, policy sched.Scheduler, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("engine: nil scheduler")
	}
	if err := job.ValidateAll(specs); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	res := &Result{Jobs: make([]JobResult, len(specs))}
	res.Reserve(len(specs))
	s := newSim(policy, cfg, func(js *jobState, jr JobResult) { res.Jobs[js.pos] = jr })
	defer s.release()
	tasks := s.feedSpecs(specs)
	if s.probe != nil {
		s.probe.ArenaReuse(len(specs), tasks, s.reused)
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	res.Scheduler = s.driver.Name()
	res.Makespan = s.makespan
	if s.makespan > 0 {
		res.Utilization = s.busyIntegral / (s.makespan * float64(s.cfg.Containers))
	}
	res.PeakUsage = s.peakUsage
	for i := range res.Jobs {
		res.Record(res.Jobs[i].Bin, res.Jobs[i].ResponseTime)
	}
	return res, nil
}

// RunIsolated simulates a single job alone on the cluster and returns its
// completion time, the denominator of the paper's slowdown metric. Failures,
// stragglers and speculation are disabled so the baseline is deterministic.
func RunIsolated(spec job.Spec, policy sched.Scheduler, cfg Config) (float64, error) {
	cfg.FailureProb = 0
	cfg.StragglerProb = 0
	cfg.Speculation = false
	cfg.MaxRunningJobs = 0
	spec.Arrival = 0
	res, err := Run([]job.Spec{spec}, policy, cfg)
	if err != nil {
		return 0, err
	}
	return res.Jobs[0].ResponseTime, nil
}

// Event kinds inside the simulator.
const (
	// evArrivals is the single pending-arrivals sentinel: at most one is in
	// the queue at any time, scheduled at the arrival cursor's head time.
	// Firing it drains every arrival due at that instant and re-arms the
	// sentinel at the next head — so a run holds one arrival event instead
	// of one per trace job, and equal-time arrivals still land in one batch
	// exactly as the old per-job arrival events did.
	evArrivals = iota + 1
	evAttemptDone
)

type event struct {
	kind    int
	attempt int // attempt index for evAttemptDone
}

type sim struct {
	cfg   Config
	rng   *rand.Rand
	probe obs.Probe // nil-checked at every emission site

	// Kernel modules: policy capability dispatch and observation gating
	// (driver) and the FIFO admission module (adm), which holds the arrived
	// jobs' pending entries. The embedded arena holds the pooled job records
	// and entries, the attempt slab, the event queue, the view registry (vs)
	// and the round-local scratch; it is recycled (substrate.Arenas), so
	// repeated runs reuse the same storage.
	driver *substrate.Driver
	adm    *substrate.Queue[*pendingJob]
	*arena
	reused bool // the arena has carried a run before (Run's ArenaReuse event)

	// cur feeds the run loop its arrival stream, a pending entry per job,
	// from a Run's workload (feedSpecs) or a RunStream's Source (feedSource):
	// one cursor and one event loop, so the operations (and their
	// floating-point order) are identical.
	cur          substrate.StreamCursor[jobRef, pendingJob]
	moreArrivals bool // the arrivals sentinel is armed (cursor not exhausted)
	// room sizes the record slabs a run has to allocate (see growSlab): a
	// Run's largest job, zero in a RunStream.
	room jobShape

	// finish, when non-nil, receives each job's result the moment it
	// completes.
	finish func(*jobState, JobResult)

	remaining  int // arrived jobs not yet completed
	usedSlots  int // containers currently occupied
	readySlots int // containers needed by ready tasks of admitted jobs
	now        float64
	makespan   float64

	busyIntegral float64 // container-seconds delivered (for utilization)
	peakUsage    int

	// attemptSlab is the attempt slab's free-list accounting (see
	// attemptRecycling).
	attemptSlab substrate.SlabStats
}

// launchCand is one job below its container target in a scheduling round;
// deficit is how far below, taken before the round launches anything.
type launchCand struct {
	js      *jobState
	target  int
	deficit int
}

// before is the order launch candidates are served in: the largest
// allocation deficit first (the policy's most-preferred jobs), the earlier
// admission on a tie. Admission sequences are unique, so the order is total.
func (c *launchCand) before(o *launchCand) bool {
	if c.deficit != o.deficit {
		return c.deficit > o.deficit
	}
	return c.js.seq < o.js.seq
}

// specCand is one speculation candidate (a running, unduplicated task).
type specCand struct {
	js        *jobState
	stage     int
	task      int
	remaining float64
}

// newSim wires a run over a recycled arena; finish, when non-nil, receives each
// job's result as it completes. The caller points the arrival cursor at its
// input (feedSpecs or feedSource) and releases the sim.
func newSim(policy sched.Scheduler, cfg Config, finish func(*jobState, JobResult)) *sim {
	ar := arenas.Get()
	s := &sim{
		cfg:    cfg,
		probe:  cfg.Probe,
		driver: substrate.NewDriver(policy),
		adm:    substrate.NewQueue[*pendingJob](cfg.MaxRunningJobs),
		rng:    dist.New(cfg.Seed),
		arena:  ar,
		reused: cap(ar.running) > 0,
		cur:    substrate.StreamCursor[jobRef, pendingJob]{Pool: &ar.entries, Arrival: refArrival},
		finish: finish,
	}
	s.driver.SetProbe(cfg.Probe)
	return s
}

func compareJobID(a, b *jobState) int { return a.spec.ID - b.spec.ID }

// release scrubs the sim's arena and returns it to the free list. The sim
// must not be used afterwards.
func (s *sim) release() {
	ar := s.arena
	s.arena = nil
	ar.scrub()
	arenas.Put(ar)
}

func (s *sim) run() error {
	// No arrival is due at -Inf: this only arms the sentinel at the first.
	if err := s.drainArrivals(math.Inf(-1)); err != nil {
		return err
	}
	for s.remaining > 0 || s.moreArrivals {
		if err := s.step(); err != nil {
			return err
		}
	}
	if s.probe != nil {
		// All three values are functions of the simulated run alone, so the
		// event is byte-deterministic. Live counts slots still held at exit
		// (killed copies whose completion events never drained).
		st := s.attemptSlab
		s.probe.SlabStats(s.now, st.Live, st.Peak, st.Recycled)
	}
	return nil
}

// step advances the run by one instant: every event due at the earliest
// pending time, then admission and one scheduling round.
func (s *sim) step() error {
	t, batch, ok := s.queue.PopBatch(s.batchBuf)
	s.batchBuf = batch
	if !ok {
		return fmt.Errorf("engine: deadlock at t=%v with %d unfinished jobs", s.now, s.remaining)
	}
	if t < s.now {
		return fmt.Errorf("engine: time went backwards: %v -> %v", s.now, t)
	}
	s.busyIntegral += float64(s.usedSlots) * (t - s.now)
	s.now = t
	for _, ev := range batch {
		switch ev.kind {
		case evArrivals:
			if err := s.drainArrivals(t); err != nil {
				return err
			}
		case evAttemptDone:
			s.handleAttemptDone(ev.attempt)
		}
	}
	s.admit()
	s.schedule()
	return nil
}

// drainArrivals consumes every arrival due at t — the sentinel's fire time,
// which is the exact head-arrival float, so the equality test batches
// precisely the arrivals the old per-job events would have batched — then
// re-arms the sentinel at the next head arrival, if any. An arrived job's
// pending entry joins the live set and waits for admission.
func (s *sim) drainArrivals(t float64) error {
	for {
		a, ok, err := s.cur.Peek()
		if err != nil {
			return err
		}
		if !ok {
			s.moreArrivals = false
			return nil
		}
		if a > t {
			s.moreArrivals = true
			s.queue.Push(a, event{kind: evArrivals})
			return nil
		}
		p := s.cur.Pop()
		if _, dup := s.liveIDs[p.spec.ID]; dup {
			return fmt.Errorf("engine: duplicate live job ID %d in stream", p.spec.ID)
		}
		s.liveIDs[p.spec.ID] = struct{}{}
		s.remaining++
		s.adm.Push(p)
		if s.probe != nil {
			s.probe.JobSubmitted(s.now, p.spec.ID)
		}
	}
}

// admit releases waiting jobs into the cluster while the admission limit
// allows, in arrival order (the kernel's job-admission module). A released
// job takes a record from the pool and builds its task state there.
func (s *sim) admit() {
	s.adm.Admit(func(p *pendingJob, seq int) {
		js := s.records.Get().build(p, s.room)
		js.admittedAt = s.now
		js.seq = seq
		js.slot = s.vs.TakeSlot()
		js.view.now = &s.now
		// Jobs are admitted in arrival order and listed by workload position,
		// which differ in a Run over an unsorted workload: insert from the
		// back by position.
		k := len(s.running)
		for k > 0 && s.running[k-1].pos > js.pos {
			k--
		}
		s.setRunning(slices.Insert(s.running, k, js))
		s.readySlots += js.readyContainers
		if s.probe != nil {
			s.probe.JobAdmitted(s.now, js.spec.ID, s.now-js.spec.Arrival)
		}
	})
}

func (s *sim) handleAttemptDone(attemptID int) {
	a := &s.attempts[attemptID]
	js := a.js
	if !a.ended {
		s.processAttemptDone(a)
	}
	// The slot is freed exactly when its own completion event fires: every
	// attempt has exactly one pending event, so after this no reference to
	// the slot remains (freeAttempt prunes it from the task's attempt list).
	if attemptRecycling {
		s.freeAttempt(a)
	}
	// The job leaves the live set, and its pooled record and pending entry
	// are recycled, once the job has completed and its last pending attempt
	// event — possibly a killed copy's, long after completion — has fired.
	js.pendingEvents--
	if js.completed && js.pendingEvents == 0 {
		delete(s.liveIDs, js.spec.ID)
		s.entries.Put(js.rec.entry)
		s.records.Put(js.rec)
	}
}

// freeAttempt returns an ended attempt's slab slot to the free list.
func (s *sim) freeAttempt(a *attempt) {
	task := &a.js.stages[a.stage].tasks[a.task]
	task.attemptIDs = removeID(task.attemptIDs, a.id)
	s.freeAttempts = append(s.freeAttempts, a.id)
	s.attemptSlab.Live--
}

// removeID deletes the first occurrence of id, shifting in place.
func removeID(ids []int, id int) []int {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// processAttemptDone handles a not-yet-ended attempt's completion event.
func (s *sim) processAttemptDone(a *attempt) {
	s.finishAttempt(a)
	js := a.js
	st := &js.stages[a.stage]
	task := &st.tasks[a.task]
	task.runningAttempts--

	if !a.success {
		js.failures++
		if s.probe != nil {
			s.probe.TaskFail(s.now, js.spec.ID, a.stage, a.task, a.start)
		}
		// Re-queue the task unless a sibling attempt is still running.
		if task.runningAttempts == 0 && !task.done {
			s.requeueTask(js, st, a.task)
		}
		return
	}

	if task.done {
		return // a sibling attempt already completed this task
	}
	task.done = true
	st.doneTasks++
	st.doneContainers += task.spec.Containers
	if s.probe != nil {
		s.probe.TaskDone(s.now, js.spec.ID, a.stage, a.task, a.start, a.speculative)
	}

	// Kill the remaining sibling attempts of the completed task.
	for _, sibID := range task.attemptIDs {
		sib := &s.attempts[sibID]
		if !sib.ended {
			s.finishAttempt(sib)
			task.runningAttempts--
		}
	}

	if st.doneTasks == len(st.tasks) && !st.completed {
		s.completeStage(js, a.stage)
	}
}

func (s *sim) requeueTask(js *jobState, st *stageState, taskIdx int) {
	task := &st.tasks[taskIdx]
	task.ready = true
	st.pushReady(taskIdx)
	st.readyContainers += task.spec.Containers
	js.readyContainers += task.spec.Containers
	s.readySlots += task.spec.Containers // requeues only happen to admitted jobs
}

// finishAttempt finalizes service accounting for an attempt that ended
// (successfully, by failure, or killed) and releases its containers.
func (s *sim) finishAttempt(a *attempt) {
	a.ended = true
	consumed := float64(a.containers) * (s.now - a.start)
	js := a.js
	st := &js.stages[a.stage]

	js.finalizedService += consumed
	js.usage -= a.containers
	js.runStartWeight -= float64(a.containers) * a.start

	st.finalizedService += consumed
	st.usage -= a.containers
	st.runStartWeight -= float64(a.containers) * a.start

	if a.invDur > 0 {
		st.invDurSum -= a.invDur
		st.startInvDurSum -= a.invDur * a.start
		// Progress contributed by an unfinished primary attempt disappears
		// with it; completed tasks are counted via doneTasks instead.
	}
	s.usedSlots -= a.containers
}

// completeStage marks a stage done and unlocks dependents whose dependencies
// are now all satisfied (dependency handling: reduce tasks only become ready
// once the map stage completes; Spark DAG branches unlock independently).
func (s *sim) completeStage(js *jobState, idx int) {
	st := &js.stages[idx]
	st.completed = true
	st.active = false
	if s.probe != nil {
		s.probe.StageDone(s.now, js.spec.ID, idx)
	}
	js.completedStagesService += st.finalizedService
	js.doneStages++
	js.deactivateStage(idx)
	for _, dep := range st.dependents {
		next := &js.stages[dep]
		next.remainingDeps--
		if next.remainingDeps == 0 {
			js.activateStage(dep)
			s.readySlots += next.readyContainers
		}
	}
	if js.doneStages < len(js.stages) {
		return
	}
	// All stages complete: the job is done.
	js.completed = true
	js.completedAt = s.now
	k := slices.Index(s.running, js)
	s.setRunning(slices.Delete(s.running, k, k+1))
	s.vs.FreeSlot(js.slot)
	s.adm.Done()
	s.remaining--
	if s.now > s.makespan {
		s.makespan = s.now
	}
	if s.probe != nil {
		s.probe.JobDone(s.now, js.spec.ID, s.now-js.spec.Arrival)
	}
	if s.finish != nil {
		// Every field is final here: killed siblings were finalized
		// synchronously when their tasks completed, and events that fire
		// after this (ended copies draining) change no job counter.
		s.finish(js, JobResult{
			ID:           js.spec.ID,
			Name:         js.spec.Name,
			Bin:          js.spec.Bin,
			Arrival:      js.spec.Arrival,
			Admitted:     js.admittedAt,
			Completed:    js.completedAt,
			ResponseTime: js.completedAt - js.spec.Arrival,
			Service:      js.finalizedService,
			Attempts:     js.attempts,
			Failures:     js.failures,
			Speculative:  js.speculative,
		})
	}
}

// schedule runs one scheduling round: query the policy, quantize its shares
// to whole containers, launch ready tasks up to each job's target, then apply
// work-conserving leftover allocation and optional speculation.
//
// Rounds that provably cannot launch a task are short-circuited (see
// canSkipRound in incremental.go): the policy's allocation would be thrown
// away, so only its state mutation is replayed via sched.Observer.
func (s *sim) schedule() {
	if !s.cfg.FullReschedule && s.canSkipRound() {
		s.observeRound()
		return
	}
	if len(s.running) == 0 {
		s.collectViews()
		s.driver.Observe(s.now, &s.vs) // the departures of the last running jobs
		return
	}
	s.collectViews()
	shares := s.driver.Shares(s.now, float64(s.cfg.Containers), &s.vs)

	// Quantize the shares: one dense row per running job, in ascending job ID
	// — the order the share total is summed in, whatever order the jobs were
	// listed or arrived in. A job's share sits at its view's index; demand
	// comes straight from job state.
	rows := s.rows[:0]
	for _, js := range s.idOrder {
		rows = append(rows, sched.QuantRow{ID: js.spec.ID, Share: shares[js.viewIdx], Demand: js.readyDemand()})
	}
	s.rows = rows
	s.quant.QuantizeRows(rows, s.cfg.Containers)

	// Launch ready tasks while a job is below its target, serving the
	// largest allocation deficits first (the policy's most-preferred jobs).
	// If a preferred job's next task needs more containers than are free —
	// a 2-container reduce task against a single free container — the free
	// containers are RESERVED for it, as YARN's schedulers do; without the
	// reservation, 1-container map tasks of lower-priority jobs would snatch
	// every freed container and starve multi-container tasks indefinitely.
	cands := s.cands[:0]
	for i, js := range s.idOrder {
		if t := rows[i].Target; t > js.usage {
			cands = append(cands, launchCand{js: js, target: t, deficit: t - js.usage})
		}
	}
	s.cands = cands
	// The candidates are served by repeated selection of the first in that
	// order, not off a sorted list: a round typically enters with one
	// container just freed and serves one or two of a dozen. Once
	// usedSlots+reserved reaches the cluster size the rest cannot matter — no
	// task fits (every task needs a container), and reserved is only ever
	// compared against that same threshold, here, by the backfill and by
	// speculate, so what later candidates would add to it changes nothing.
	// Each candidate served costs one pass over those left, so the round pays
	// for what it launches or reserves: at most a pass per free container.
	reserved := 0
	for len(cands) > 0 && s.usedSlots+reserved < s.cfg.Containers {
		first := 0
		for i := 1; i < len(cands); i++ {
			if cands[i].before(&cands[first]) {
				first = i
			}
		}
		c := cands[first]
		last := len(cands) - 1
		cands[first] = cands[last]
		cands = cands[:last]
		for c.js.usage < c.target {
			started, need := s.startNextReadyTask(c.js, reserved)
			if started {
				continue
			}
			if need > 0 {
				// Reserve the free containers for this starved task.
				free := s.cfg.Containers - s.usedSlots
				if need > free {
					need = free
				}
				reserved += need
			}
			break
		}
	}

	// Work conservation (Algorithm 2, last step): hand unreserved leftover
	// containers to any ready task, round-robin across jobs.
	progress := true
	for progress && s.usedSlots+reserved < s.cfg.Containers {
		progress = false
		for _, js := range s.running {
			if started, _ := s.startNextReadyTask(js, reserved); started {
				progress = true
			}
		}
	}

	if s.cfg.Speculation {
		s.speculate(reserved)
	}
	if s.usedSlots > s.peakUsage {
		s.peakUsage = s.usedSlots
	}
}

// startNextReadyTask starts the next ready task of js's active stages
// (lowest stage index first) if enough unreserved containers are free. It
// reports whether a task was started; when the next task exists but does not
// fit, need is its container requirement so the caller can reserve capacity
// for it.
func (s *sim) startNextReadyTask(js *jobState, reserved int) (started bool, need int) {
	free := s.cfg.Containers - s.usedSlots - reserved
	for _, si := range js.activeStages {
		st := &js.stages[si]
		for !st.readyEmpty() {
			ti := st.peekReady()
			task := &st.tasks[ti]
			if !task.ready || task.done {
				st.popReady() // stale entry
				continue
			}
			if task.spec.Containers > free {
				return false, task.spec.Containers
			}
			st.popReady()
			st.readyContainers -= task.spec.Containers
			js.readyContainers -= task.spec.Containers
			s.readySlots -= task.spec.Containers
			task.ready = false
			s.launchAttempt(js, si, ti, false)
			return true, 0
		}
	}
	return false, 0
}

// launchAttempt starts an attempt of the given task now. The caller must
// have already removed the task from the ready queue (for primary attempts).
func (s *sim) launchAttempt(js *jobState, stage, taskIdx int, speculative bool) {
	st := &js.stages[stage]
	task := &st.tasks[taskIdx]

	// Full (progress-relevant) duration, possibly stretched by a straggler.
	duration := task.spec.Duration
	if s.cfg.StragglerProb > 0 && s.rng.Float64() < s.cfg.StragglerProb {
		duration *= s.cfg.StragglerFactor
	}
	// Failure injection: the attempt dies after a uniform fraction of its
	// duration without completing the task.
	success := true
	runtime := duration
	if s.cfg.FailureProb > 0 && s.rng.Float64() < s.cfg.FailureProb {
		success = false
		runtime = duration * s.rng.Float64()
		if runtime <= 0 {
			runtime = 1e-9
		}
	}

	// Take an attempt slot: a recycled one off the free list when available,
	// else a value append into the slab. Take the pointer only after the
	// append (a slab growth would strand a pre-append pointer).
	var id int
	if n := len(s.freeAttempts); attemptRecycling && n > 0 {
		id = s.freeAttempts[n-1]
		s.freeAttempts = s.freeAttempts[:n-1]
		s.attemptSlab.Recycled++
	} else {
		id = len(s.attempts)
		s.attempts = append(s.attempts, attempt{})
	}
	s.attempts[id] = attempt{
		id:          id,
		js:          js,
		stage:       stage,
		task:        taskIdx,
		containers:  task.spec.Containers,
		start:       s.now,
		success:     success,
		speculative: speculative,
	}
	a := &s.attempts[id]
	s.attemptSlab.Live++
	s.attemptSlab.Peak = max(s.attemptSlab.Peak, s.attemptSlab.Live)
	task.lastStart = s.now
	if !speculative {
		a.invDur = 1 / duration
	}
	task.attemptIDs = append(task.attemptIDs, a.id)
	task.runningAttempts++
	if s.probe != nil {
		if js.attempts == 0 {
			s.probe.JobStarted(s.now, js.spec.ID)
		}
		s.probe.TaskStart(s.now, js.spec.ID, stage, taskIdx, a.containers, speculative)
	}
	js.attempts++
	if speculative {
		js.speculative++
	}

	js.usage += a.containers
	js.runStartWeight += float64(a.containers) * a.start
	st.usage += a.containers
	st.runStartWeight += float64(a.containers) * a.start
	if a.invDur > 0 {
		st.invDurSum += a.invDur
		st.startInvDurSum += a.invDur * a.start
	}
	s.usedSlots += a.containers
	js.pendingEvents++
	s.queue.Push(s.now+runtime, event{kind: evAttemptDone, attempt: a.id})
}

// speculate launches duplicate copies of the running tasks with the largest
// expected remaining time on leftover containers, at most one copy per task.
func (s *sim) speculate(reserved int) {
	free := s.cfg.Containers - s.usedSlots - reserved
	if free <= 0 {
		return
	}
	cands := s.specCands[:0]
	for _, js := range s.running {
		for _, si := range js.activeStages {
			st := &js.stages[si]
			for ti := range st.tasks {
				task := &st.tasks[ti]
				if task.done || task.runningAttempts != 1 {
					continue // not running, or already duplicated
				}
				// lastStart is the most recent attempt's launch time — the same
				// value the attempt slab's newest entry for this task holds, but
				// safe to read when recycling has repurposed ended slots.
				worstCase := task.lastStart + task.spec.Duration*s.cfg.StragglerFactor
				cands = append(cands, specCand{js: js, stage: si, task: ti, remaining: worstCase - s.now})
			}
		}
	}
	s.specCands = cands
	// Longest expected remaining time first; deterministic tie-break on job ID.
	for i := range cands {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].remaining > cands[best].remaining ||
				(cands[j].remaining == cands[best].remaining &&
					cands[j].js.spec.ID < cands[best].js.spec.ID) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	for _, c := range cands {
		task := &c.js.stages[c.stage].tasks[c.task]
		if task.done || task.spec.Containers > s.cfg.Containers-s.usedSlots-reserved {
			continue
		}
		s.launchAttempt(c.js, c.stage, c.task, true)
		if s.usedSlots+reserved >= s.cfg.Containers {
			return
		}
	}
}

// collectViews brings the kernel's view registry up to date for a round. The
// registration — the running jobs' persistent view adapters and slots in
// running order, each job's index among them, and the ascending-ID order the
// quantizer's rows are laid out in — depends on the running set alone, so it
// is rebuilt only after setRunning marked it stale; the views read the clock
// through a pointer and need no re-stamping. The registry's demand map stays
// unused: the engine quantizes from job state (see schedule).
func (s *sim) collectViews() {
	if !s.viewsStale {
		return
	}
	s.viewsStale = false
	s.viewRebuilds++
	s.vs.Begin(false, false)
	for i, js := range s.running {
		js.viewIdx = i
		s.vs.AddSlot(&js.view, js.slot)
	}
	s.idOrder = s.running
	if !slices.IsSortedFunc(s.running, compareJobID) {
		s.idScratch = append(s.idScratch[:0], s.running...)
		slices.SortFunc(s.idScratch, compareJobID)
		s.idOrder = s.idScratch
	}
}
