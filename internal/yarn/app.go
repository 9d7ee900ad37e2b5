package yarn

import (
	"time"

	"lasmq/internal/job"
	"lasmq/internal/sched"
)

// application is the ResourceManager's record of one job: the ApplicationMaster
// duties (tracking stage progress, requesting containers for ready tasks,
// reporting completion) folded into RM-owned state, which keeps the whole
// cluster lock-free. All service quantities are kept in spec seconds.
type application struct {
	spec        job.Spec
	submittedAt time.Time
	admittedAt  time.Time
	started     bool  // first attempt launched (telemetry only)
	seq         int   // admission sequence
	slot        int32 // the substrate.ViewSet slot held from admission to completion
	viewIdx     int   // index of this round's view, and so of the job's share

	stages       []appStage
	activeStages []int // unlocked, uncompleted stage indices, ascending
	doneStages   int
	usage        int // containers currently held

	finalizedService       float64 // container-spec-seconds of finished attempts
	completedStagesService float64
	// Running-attempt aggregate: attained adds
	// (now - start) * containers / scale per running attempt, tracked as
	// usage*now - runWeight in wall nanoseconds.
	runWeight float64

	failures int

	// viewAdapter is the persistent sched.JobView adapter re-stamped by
	// view() each round, so view construction allocates nothing.
	viewAdapter appView
}

type appStage struct {
	tasks    []job.TaskSpec
	readyIdx []int
	doneTask int

	// DAG bookkeeping (see engine.stageState).
	remainingDeps int
	completed     bool
	dependents    []int

	totalContainers int
	doneContainers  int
	readyContainers int

	finalized float64
	usage     int
	runWeight float64

	// Progress aggregates over running attempts, in wall nanoseconds:
	// progressed fraction = (done + now*invDurSum - startInvDurSum) / n.
	invDurSum      float64
	startInvDurSum float64
}

func newApplication(spec job.Spec, now time.Time) *application {
	app := &application{spec: spec, submittedAt: now}
	app.stages = make([]appStage, len(spec.Stages))
	for i := range spec.Stages {
		st := &app.stages[i]
		st.tasks = spec.Stages[i].Tasks
		for _, t := range st.tasks {
			st.totalContainers += t.Containers
		}
		for _, dep := range spec.Deps(i) {
			st.remainingDeps++
			app.stages[dep].dependents = append(app.stages[dep].dependents, i)
		}
	}
	for i := range app.stages {
		if app.stages[i].remainingDeps == 0 {
			app.activateStage(i)
		}
	}
	return app
}

// activateStage unlocks a stage: its tasks become ready.
func (a *application) activateStage(i int) {
	st := &a.stages[i]
	for ti := range st.tasks {
		st.readyIdx = append(st.readyIdx, ti)
		st.readyContainers += st.tasks[ti].Containers
	}
	pos := len(a.activeStages)
	for pos > 0 && a.activeStages[pos-1] > i {
		pos--
	}
	a.activeStages = append(a.activeStages, 0)
	copy(a.activeStages[pos+1:], a.activeStages[pos:])
	a.activeStages[pos] = i
}

func (a *application) deactivateStage(i int) {
	for k, idx := range a.activeStages {
		if idx == i {
			a.activeStages = append(a.activeStages[:k], a.activeStages[k+1:]...)
			return
		}
	}
}

func (a *application) done() bool { return a.doneStages >= len(a.stages) }

// peekReady returns the next ready task across the active stages.
func (a *application) peekReady() (spec job.TaskSpec, stage, taskIdx int, ok bool) {
	for _, si := range a.activeStages {
		st := &a.stages[si]
		if len(st.readyIdx) == 0 {
			continue
		}
		ti := st.readyIdx[0]
		return st.tasks[ti], si, ti, true
	}
	return job.TaskSpec{}, 0, 0, false
}

// markLaunched removes the task from the ready queue and starts its service
// accounting. The task must be the head of its stage's ready queue (as
// returned by peekReady).
func (a *application) markLaunched(stage, taskIdx, containers int, start time.Time) {
	st := &a.stages[stage]
	st.readyIdx = st.readyIdx[1:]
	st.readyContainers -= containers

	startNanos := float64(start.UnixNano())
	a.usage += containers
	a.runWeight += float64(containers) * startNanos
	st.usage += containers
	st.runWeight += float64(containers) * startNanos

	durWall := st.tasks[taskIdx].Duration // spec seconds; scaled at view time
	if durWall > 0 {
		st.invDurSum += 1 / durWall
		st.startInvDurSum += startNanos / durWall
	}
}

// completeTask finalizes a finished attempt's accounting and unlocks the next
// stage when the current one completes.
func (a *application) completeTask(comp completion, scale time.Duration) {
	st := &a.stages[comp.stage]
	task := st.tasks[comp.task]

	elapsedSpec := float64(comp.finished.Sub(comp.started)) / float64(scale)
	consumed := float64(comp.containers) * elapsedSpec
	startNanos := float64(comp.started.UnixNano())

	a.usage -= comp.containers
	a.runWeight -= float64(comp.containers) * startNanos
	a.finalizedService += consumed
	st.usage -= comp.containers
	st.runWeight -= float64(comp.containers) * startNanos
	st.finalized += consumed
	if task.Duration > 0 {
		st.invDurSum -= 1 / task.Duration
		st.startInvDurSum -= startNanos / task.Duration
	}

	if !comp.success {
		// Failed attempt: the consumed service stays counted (as in the
		// paper's implementation, which filters unsuccessful attempts only
		// out of the remaining-task counters), and the task is re-queued.
		a.failures++
		st.readyIdx = append(st.readyIdx, comp.task)
		st.readyContainers += task.Containers
		return
	}

	st.doneTask++
	st.doneContainers += task.Containers
	if st.doneTask == len(st.tasks) && !st.completed {
		st.completed = true
		a.completedStagesService += st.finalized
		a.doneStages++
		a.deactivateStage(comp.stage)
		for _, dep := range st.dependents {
			next := &a.stages[dep]
			next.remainingDeps--
			if next.remainingDeps == 0 {
				a.activateStage(dep)
			}
		}
	}
}

// attained returns consumed service in container-spec-seconds as of now.
func (a *application) attained(now time.Time, scale time.Duration) float64 {
	running := (float64(now.UnixNano())*float64(a.usage) - a.runWeight) / float64(scale)
	if running < 0 {
		running = 0
	}
	return a.finalizedService + running
}

// estimated is the stage-aware service estimate over the active stages (see
// engine.jobState.estimated).
func (a *application) estimated(now time.Time, scale time.Duration) float64 {
	est := a.completedStagesService
	nowNanos := float64(now.UnixNano())
	for _, si := range a.activeStages {
		st := &a.stages[si]
		runningSpec := (nowNanos*float64(st.usage) - st.runWeight) / float64(scale)
		if runningSpec < 0 {
			runningSpec = 0
		}
		stageAttained := st.finalized + runningSpec

		// Progress: done tasks plus partial progress of running attempts.
		// The per-attempt rate is 1/duration in spec seconds, so elapsed
		// wall time converts through scale.
		partial := (nowNanos*st.invDurSum - st.startInvDurSum) / float64(scale)
		if partial < 0 {
			partial = 0
		}
		progress := (float64(st.doneTask) + partial) / float64(len(st.tasks))
		if progress > 1 {
			progress = 1
		}
		stageEst := stageAttained
		if progress > 0 {
			stageEst = stageAttained / progress
		}
		est += stageEst
	}
	return est
}

// appView adapts application to sched.JobView at one instant.
type appView struct {
	app   *application
	now   time.Time
	scale time.Duration
}

var _ sched.JobView = (*appView)(nil)

func (a *application) view(now time.Time, scale time.Duration) *appView {
	a.viewAdapter.app = a
	a.viewAdapter.now = now
	a.viewAdapter.scale = scale
	return &a.viewAdapter
}

func (v *appView) ID() int            { return v.app.spec.ID }
func (v *appView) Seq() int           { return v.app.seq }
func (v *appView) Priority() int      { return v.app.spec.Priority }
func (v *appView) Attained() float64  { return v.app.attained(v.now, v.scale) }
func (v *appView) Estimated() float64 { return v.app.estimated(v.now, v.scale) }

func (v *appView) ReadyDemand() float64 { return v.app.readyDemand() }

// readyDemand is the containers the application's ready tasks ask for.
func (a *application) readyDemand() float64 {
	total := 0
	for _, si := range a.activeStages {
		total += a.stages[si].readyContainers
	}
	return float64(total)
}

func (v *appView) RemainingDemand() float64 {
	total := 0
	for i := range v.app.stages {
		if v.app.stages[i].completed {
			continue
		}
		total += v.app.stages[i].totalContainers - v.app.stages[i].doneContainers
	}
	return float64(total)
}

func (v *appView) SizeHint() float64 { return v.app.spec.EffectiveSizeHint() }

func (v *appView) RemainingSizeHint() float64 {
	rem := v.app.spec.EffectiveSizeHint() - v.Attained()
	if rem < 0 {
		return 0
	}
	return rem
}
