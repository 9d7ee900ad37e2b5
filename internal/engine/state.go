package engine

import (
	"lasmq/internal/eventq"
	"lasmq/internal/job"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// attempt is one execution attempt of a task on physical containers.
// Attempts live in the arena's flat slab and are addressed by index; the
// slab grows during a run, so pointers into it must not be held across a
// launchAttempt call. js is the attempt's job: the job state outlives every
// attempt's pending completion event (jobState.pendingEvents), so the event
// path follows the pointer instead of looking the job up by ID.
type attempt struct {
	id          int
	js          *jobState
	stage       int
	task        int
	containers  int
	start       float64
	success     bool // outcome decided at launch (failure injection)
	speculative bool
	ended       bool
	// invDur is 1/duration for primary attempts (progress accounting);
	// zero for speculative copies so they do not double-count progress.
	invDur float64
}

// taskState tracks one task across its attempts.
type taskState struct {
	spec            job.TaskSpec
	ready           bool
	done            bool
	runningAttempts int
	attemptIDs      []int
	// lastStart is the launch time of the task's most recent attempt. The
	// speculation scan reads it instead of indexing the attempt slab, so
	// recycling an ended attempt's slot cannot change what speculate sees.
	lastStart float64
}

// stageState tracks one stage, with O(1) aggregates for service accounting
// and stage progress (the paper's stage-awareness inputs).
type stageState struct {
	tasks []taskState
	// Ready-task queue: the live entries are readyIdx[readyHead:]. Dequeuing
	// advances readyHead instead of re-slicing so the backing array is not
	// abandoned (and reallocated) on every launch; the queue is reset to its
	// full capacity whenever it drains, and a push onto a full array moves
	// the live entries to the front first. A task is queued at most once, so
	// the one carve of len(tasks) slots then always has room: a re-queued
	// retry does not spill to the heap.
	readyIdx  []int
	readyHead int
	doneTasks int

	// DAG bookkeeping: a stage activates when remainingDeps reaches zero and
	// completes when all its tasks succeed.
	remainingDeps int
	active        bool
	completed     bool
	dependents    []int // stages waiting on this one, ascending
	fanOut        int   // len(dependents) once built (counted before the carve)

	totalContainers int // sum of task container requirements
	doneContainers  int
	readyContainers int

	// Service accounting: finalized covers ended attempts; running attempts
	// contribute containers*(now-start) = now*usage - runStartWeight.
	finalizedService float64
	usage            int
	runStartWeight   float64

	// Progress accounting over primary (non-speculative) running attempts:
	// fraction progressed = (doneTasks + now*invDurSum - startInvDurSum) / n.
	invDurSum      float64
	startInvDurSum float64
}

// pushReady enqueues a ready task index.
func (st *stageState) pushReady(ti int) {
	if len(st.readyIdx) == cap(st.readyIdx) && st.readyHead > 0 {
		n := copy(st.readyIdx, st.readyIdx[st.readyHead:])
		st.readyIdx = st.readyIdx[:n]
		st.readyHead = 0
	}
	st.readyIdx = append(st.readyIdx, ti)
}

// readyEmpty reports whether the ready queue has no live entries.
func (st *stageState) readyEmpty() bool { return st.readyHead >= len(st.readyIdx) }

// peekReady returns the next ready task index; the queue must be non-empty.
func (st *stageState) peekReady() int { return st.readyIdx[st.readyHead] }

// popReady dequeues the next entry, reclaiming the backing array once the
// queue drains.
func (st *stageState) popReady() {
	st.readyHead++
	if st.readyHead == len(st.readyIdx) {
		st.readyIdx = st.readyIdx[:0]
		st.readyHead = 0
	}
}

func (st *stageState) attained(now float64) float64 {
	return st.finalizedService + now*float64(st.usage) - st.runStartWeight
}

// progress returns the completed fraction of the stage in [0,1], counting
// completed tasks plus the partial progress of running primary attempts —
// the simulator's analog of the data-processed percentage Hadoop and Spark
// expose. Task-duration skew makes the early progress rate unstable, so the
// projection over-estimates at times, matching the paper's observation that
// over-estimates occur and mostly penalize only the job itself.
func (st *stageState) progress(now float64) float64 {
	p := (float64(st.doneTasks) + now*st.invDurSum - st.startInvDurSum) / float64(len(st.tasks))
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// jobState is the runtime state of one admitted job. It lives in a pooled
// jobRecord, whose chunked pool keeps pointers to it stable until the record
// is released.
type jobState struct {
	spec *job.Spec

	completed   bool
	admittedAt  float64
	completedAt float64
	seq         int // admission sequence
	pos         int // workload position (see pendingJob.pos and arena.running)
	// slot is the view registry's handle for the job, held from admission to
	// completion; viewIdx is the job's index among the current round's views,
	// where the policy's share for it is read.
	slot    int32
	viewIdx int

	stages       []stageState
	activeStages []int // indices of unlocked, uncompleted stages, ascending
	doneStages   int
	// readyContainers is the number of containers needed by the ready
	// (startable) tasks of the active stages: the sum of their stages'
	// readyContainers, moved wherever one of those moves (activateStage,
	// startNextReadyTask, requeueTask) instead of re-derived by walking the
	// stages. A stage completes with nothing ready, so leaving the active list
	// takes nothing out of the sum.
	readyContainers int

	// Whole-job service accounting, mirroring the per-stage aggregates.
	finalizedService       float64
	usage                  int
	runStartWeight         float64
	completedStagesService float64

	attempts    int
	failures    int
	speculative int

	// pendingEvents counts attempt-completion events still in the queue for
	// this job (each launch pushes exactly one). The run recycles the job's
	// record only when the job has completed AND this reaches zero — killed
	// copies' events still index into the job's task state when they fire,
	// so the record must outlive them.
	pendingEvents int

	// moved says the job's inputs to the policy — its service, estimate or
	// demands — may have moved since the policy's previous call, or that the
	// job is new to it: set wherever the job's state changes, cleared as the
	// round's change log names the job (sim.collectViews).
	moved bool

	// rec points back to the pooled record holding this state.
	rec *jobRecord

	// view is the job's persistent sched.JobView adapter. It reads the sim's
	// clock through a pointer (set at admission), so it is registered when the
	// running set changes and never re-stamped.
	view jobView
}

// activateStage unlocks a stage: its tasks become ready.
func (js *jobState) activateStage(i int) {
	st := &js.stages[i]
	st.active = true
	for ti := range st.tasks {
		st.tasks[ti].ready = true
		st.pushReady(ti)
		st.readyContainers += st.tasks[ti].spec.Containers
		js.readyContainers += st.tasks[ti].spec.Containers
	}
	// Keep activeStages sorted ascending so task launch order is stable.
	pos := len(js.activeStages)
	for pos > 0 && js.activeStages[pos-1] > i {
		pos--
	}
	js.activeStages = append(js.activeStages, 0)
	copy(js.activeStages[pos+1:], js.activeStages[pos:])
	js.activeStages[pos] = i
}

// deactivateStage removes a completed stage from the active list.
func (js *jobState) deactivateStage(i int) {
	for k, idx := range js.activeStages {
		if idx == i {
			js.activeStages = append(js.activeStages[:k], js.activeStages[k+1:]...)
			return
		}
	}
}

func (js *jobState) attained(now float64) float64 {
	return js.finalizedService + now*float64(js.usage) - js.runStartWeight
}

// estimated is the stage-aware service estimate: exact service of completed
// stages plus each active stage's attained service divided by its progress
// (paper Sec. III-B). Locked stages contribute nothing — their cost cannot
// be predicted, as the paper's motivation section argues.
func (js *jobState) estimated(now float64) float64 {
	est := js.completedStagesService
	for _, i := range js.activeStages {
		st := &js.stages[i]
		stageAttained := st.attained(now)
		stageEst := stageAttained
		if p := st.progress(now); p > 0 {
			stageEst = stageAttained / p
		}
		est += stageEst
	}
	return est
}

// readyDemand is readyContainers as the scheduler-facing float.
func (js *jobState) readyDemand() float64 { return float64(js.readyContainers) }

// remainingDemand is the number of containers needed by all remaining tasks
// of the job, including running ones (the paper's in-queue ordering key).
func (js *jobState) remainingDemand() float64 {
	var total int
	for i := range js.stages {
		if js.stages[i].completed {
			continue
		}
		total += js.stages[i].totalContainers - js.stages[i].doneContainers
	}
	return float64(total)
}

// jobView adapts jobState to sched.JobView at the sim's current instant: now
// points at the sim's clock.
type jobView struct {
	js  *jobState
	now *float64
}

var (
	_ sched.JobView    = (*jobView)(nil)
	_ sched.ExactSizer = (*jobView)(nil)
)

func (v *jobView) ID() int            { return v.js.spec.ID }
func (v *jobView) Seq() int           { return v.js.seq }
func (v *jobView) Priority() int      { return v.js.spec.Priority }
func (v *jobView) Attained() float64  { return v.js.attained(*v.now) }
func (v *jobView) Estimated() float64 { return v.js.estimated(*v.now) }
func (v *jobView) ReadyDemand() float64 {
	return v.js.readyDemand()
}
func (v *jobView) RemainingDemand() float64 {
	return v.js.remainingDemand()
}
func (v *jobView) SizeHint() float64 { return v.js.spec.EffectiveSizeHint() }
func (v *jobView) RemainingSizeHint() float64 {
	rem := v.js.spec.EffectiveSizeHint() - v.js.attained(*v.now)
	if rem < 0 {
		return 0
	}
	return rem
}

// ExactRemaining implements sched.ExactSizer: the true remaining service
// (total minus attained), independent of SizeHint perturbation.
func (v *jobView) ExactRemaining() float64 {
	rem := v.js.spec.TotalService() - v.js.attained(*v.now)
	if rem < 0 {
		return 0
	}
	return rem
}

// attemptRecycling returns ended attempts' slab slots to a free list as soon
// as their completion event fires, bounding the attempt slab by the peak
// number of in-flight attempts instead of the total launched. A var so the
// differential tests can prove the recycled and append-only slabs produce
// byte-identical results.
var attemptRecycling = true

// jobRecord is one admitted job's pooled task state: the jobState and the
// slabs its stage, task and index lists are carved from. A job takes a record
// at admission and returns it, with its pending entry, once it has completed
// and its last attempt event has drained (see jobState.pendingEvents), so the
// records live at once are bounded by the admission cap plus the completed
// jobs still draining killed copies, whatever the backlog.
type jobRecord struct {
	js     jobState
	entry  *pendingJob // the job's backlog entry, whose spec js.spec is
	stages []stageState
	tasks  []taskState
	ints   []int // index-list backing (activeStages, attemptIDs, readyIdx, dependents)
}

// resetJobRecord is the record pool's Reset hook, run as records are returned
// (and on every record when the arena is scrubbed). The job state is the only
// part that references a spec; the slabs keep their backing capacity and are
// re-zeroed to the next job's sizes when it is built.
func resetJobRecord(r *jobRecord) {
	r.js = jobState{}
	r.entry = nil
}

// jobShape is the storage a job's task state takes: its stage and task
// records, and the ints of its index lists — the active-stage list, the
// stages' ready queues and dependent lists, and two attempt IDs per task.
// With attemptRecycling a task holds at most two live attempts, a primary or
// retry plus one speculative copy, so attemptIDs never spills to the heap.
type jobShape struct{ stages, tasks, ints int }

func shapeOf(spec *job.Spec) jobShape {
	ns, nt, edges := len(spec.Stages), 0, 0
	for si := range spec.Stages {
		nt += len(spec.Stages[si].Tasks)
		edges += len(spec.Deps(si))
	}
	return jobShape{stages: ns, tasks: nt, ints: ns + nt + edges + 2*nt}
}

// growSlab is substrate.GrowSlab, except that a slab it has to reallocate
// gets room for at least room entries. A Run knows its largest job before the
// first admission; carving every fresh record at that size keeps a record
// from regrowing each time a larger job lands on it.
func growSlab[T any](s []T, n, room int) []T {
	if cap(s) < n {
		s = make([]T, 0, max(n, room))
	}
	return substrate.GrowSlab(s, n)
}

// build lays an admitted job's task state out over the record, with fresh
// slabs sized for room (see growSlab). Subslices are carved with their
// capacity pinned (three-index slices), so an append can never overwrite a
// neighbor, and growSlab re-zeroes every slab, so a recycled record's stale
// contents are never observed.
func (r *jobRecord) build(p *pendingJob, room jobShape) *jobState {
	spec := p.spec
	shape := shapeOf(spec)
	r.entry = p
	r.stages = growSlab(r.stages, shape.stages, room.stages)
	r.tasks = growSlab(r.tasks, shape.tasks, room.tasks)
	r.ints = growSlab(r.ints, shape.ints, room.ints)
	intOff := 0
	carve := func(n int) []int {
		b := r.ints[intOff : intOff : intOff+n]
		intOff += n
		return b
	}

	js := &r.js
	js.rec = r
	js.spec = spec
	js.pos = p.pos
	js.view.js = js
	js.stages = r.stages
	js.activeStages = carve(len(spec.Stages))
	taskOff := 0
	for si := range spec.Stages {
		st := &js.stages[si]
		specs := spec.Stages[si].Tasks
		nt := len(specs)
		st.tasks = r.tasks[taskOff : taskOff+nt : taskOff+nt]
		taskOff += nt
		for ti := range specs {
			task := &st.tasks[ti]
			task.spec = specs[ti]
			task.attemptIDs = carve(2)
			st.totalContainers += task.spec.Containers
		}
		st.readyIdx = carve(nt)
		for _, dep := range spec.Deps(si) {
			st.remainingDeps++
			js.stages[dep].fanOut++
		}
	}
	// Dependent lists: counted above, carved to size here, then filled in the
	// same stage order an append per edge would have produced.
	for si := range js.stages {
		js.stages[si].dependents = carve(js.stages[si].fanOut)
	}
	for si := range spec.Stages {
		for _, dep := range spec.Deps(si) {
			js.stages[dep].dependents = append(js.stages[dep].dependents, si)
		}
	}
	// Root stages (no dependencies) are ready from admission on.
	for si := range js.stages {
		if js.stages[si].remainingDeps == 0 {
			js.activateStage(si)
		}
	}
	return js
}

// arena is the run state that outlives a run: the job-record and
// pending-entry pools, the attempt slab, the event queue, the view registry
// and the round-local scratch all keep their backing storage. Arenas are
// recycled (substrate.Arenas), so repeated runs — the policies of a sweep,
// the seeds of a replication, the shards a worker advances — reuse one arena
// instead of re-allocating the per-run state from scratch.
type arena struct {
	// records and entries pool the admitted jobs' task state and the arrived
	// jobs' backlog entries. The records one run grew (three slabs each, sized
	// by the largest job the record has held) serve the next run on this
	// arena as they are. scrub rewinds both.
	records substrate.SlabPool[jobRecord]
	entries substrate.SlabPool[pendingJob]
	// order is a Run's workload in arrival order (see feedSpecs).
	order []jobRef

	attempts []attempt // value slab; grows by append during the run
	// freeAttempts lists recycled attempt slots (see attemptRecycling); an
	// ended attempt's slot joins it when the attempt's own completion event
	// fires, the one moment no pending event references the slot.
	freeAttempts []int

	// liveIDs holds the IDs of the jobs from arrival to release, for the
	// duplicate-live-ID check alone (a Run's IDs are checked unique up front,
	// so there it never fires). Nothing on the event or round path reads it.
	liveIDs map[int]struct{}
	// running is the admitted, unfinished jobs in ascending jobState.pos —
	// workload order in a Run, arrival order in a RunStream, which coincide
	// when the workload is sorted by arrival (one of the ingredients of the
	// Run/RunStream byte-identity). admit inserts, completeStage removes, both
	// through setRunning; the backfill and speculation walk it, so a round
	// never touches the admission backlog or finished jobs.
	running []*jobState
	// What a round derives from running alone, rebuilt by collectViews only
	// after setRunning marked it stale: the view registry's views and slots
	// and each job's viewIdx (running order), and idOrder, running in
	// ascending job ID — running itself when it already is, else a sorted copy
	// in idScratch. viewRebuilds counts the rebuilds, for the tests.
	viewsStale   bool
	idOrder      []*jobState
	idScratch    []*jobState
	viewRebuilds int

	// queue is the pending-event heap. PopBatch drains every event sharing the
	// earliest timestamp, so a burst of simultaneous completions triggers a
	// single scheduling round.
	queue eventq.Queue[event]
	vs    substrate.ViewSet

	// Round-local scratch reused across scheduling rounds.
	batchBuf  []event
	quant     sched.Quantizer
	rows      []sched.QuantRow // one per running job, ascending ID
	cands     []launchCand
	specCands []specCand
}

// arenas recycles simulation arenas across runs: a process keeps one per run
// it ever had live at once.
var arenas = substrate.Arenas[arena]{New: func() *arena {
	a := &arena{liveIDs: make(map[int]struct{}, 64)}
	a.records.Reset = resetJobRecord
	a.entries.Reset = resetPending
	return a
}}

// scrub readies the arena for its next run: it takes back every record and
// entry the run still held (the reset hooks drop their references into
// caller-owned specs, so a recycled arena cannot pin a workload after its run),
// drops the job pointers the attempt slab and the round scratch hold, and
// empties the event queue, the view registry and the per-run lists.
func (a *arena) scrub() {
	a.records.Rewind()
	a.entries.Rewind()
	clear(a.order)
	clear(a.attempts)
	a.attempts = a.attempts[:0]
	a.freeAttempts = a.freeAttempts[:0]
	clear(a.liveIDs)
	clear(a.running)
	a.setRunning(a.running[:0])
	a.idOrder = nil
	clear(a.idScratch[:cap(a.idScratch)])
	a.queue.Reset()
	a.vs.Reset()
}

// setRunning is the one place running changes: whatever a round derives from
// the running set alone (see viewsStale) is stale from here on.
func (a *arena) setRunning(running []*jobState) {
	a.running = running
	a.viewsStale = true
}
