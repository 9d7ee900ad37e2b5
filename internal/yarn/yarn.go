// Package yarn is a miniature, concurrent YARN-like resource manager: the
// runnable counterpart of the paper's implementation section (Fig. 4). Where
// internal/engine simulates the cluster in virtual time, this package runs
// one for real — a ResourceManager goroutine owning cluster state, one
// NodeManager goroutine per node executing task attempts on its containers,
// a job-admission module bounding concurrently running applications, and the
// same pluggable sched.Scheduler interface deciding per-job container
// targets on every cluster event.
//
// Wall-clock time is scaled: a task specified to take 10 seconds runs for
// 10 * Config.TimeScale of real time, and everything the scheduler observes
// (attained service, stage progress) is reported back in spec seconds, so
// the same policies and workloads drive both the simulators and this live
// cluster.
package yarn

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"lasmq/internal/dist"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// Config describes the live cluster.
type Config struct {
	// Nodes is the number of node managers.
	Nodes int
	// ContainersPerNode is each node's container capacity. A multi-container
	// task must fit on a single node, as in YARN.
	ContainersPerNode int
	// MaxRunningJobs bounds concurrently running applications (the paper's
	// job-admission module). Zero means unlimited.
	MaxRunningJobs int
	// TimeScale converts spec seconds to wall-clock duration (e.g. 1 ms
	// means a 10-second task runs for 10 ms).
	TimeScale time.Duration
	// FailureProb is the probability a task attempt fails partway and is
	// re-queued (the paper's status monitor counts successful attempts
	// only). Decided by the ResourceManager at launch, so runs with the
	// same seed inject the same failures.
	FailureProb float64
	// Seed drives failure sampling.
	Seed int64
	// HeartbeatInterval is the scheduling heartbeat; scheduling also runs on
	// every task completion and submission, so the heartbeat is a backstop.
	HeartbeatInterval time.Duration
	// Probe receives telemetry events (see internal/obs). All events are
	// emitted from the ResourceManager goroutine with timestamps in spec
	// seconds (wall nanoseconds divided by TimeScale), the same clock the
	// policies observe. A nil probe costs nothing; sinks that are read
	// concurrently (e.g. obs.Counters behind an HTTP endpoint) must be
	// internally synchronized.
	Probe obs.Probe
}

// DefaultConfig returns a 4-node cluster of 30 containers each (the paper's
// testbed: 120 containers total) at millisecond scale.
func DefaultConfig() Config {
	return Config{
		Nodes:             4,
		ContainersPerNode: 30,
		MaxRunningJobs:    30,
		TimeScale:         time.Millisecond,
		HeartbeatInterval: 5 * time.Millisecond,
	}
}

func (c *Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("yarn: nodes must be positive, got %d", c.Nodes)
	}
	if c.ContainersPerNode <= 0 {
		return fmt.Errorf("yarn: containers per node must be positive, got %d", c.ContainersPerNode)
	}
	if c.MaxRunningJobs < 0 {
		return fmt.Errorf("yarn: max running jobs must be >= 0, got %d", c.MaxRunningJobs)
	}
	if c.TimeScale <= 0 {
		return fmt.Errorf("yarn: time scale must be positive, got %v", c.TimeScale)
	}
	if !(c.FailureProb >= 0 && c.FailureProb < 1) {
		return fmt.Errorf("yarn: failure probability must be in [0,1), got %v", c.FailureProb)
	}
	if c.HeartbeatInterval <= 0 {
		return fmt.Errorf("yarn: heartbeat interval must be positive, got %v", c.HeartbeatInterval)
	}
	return nil
}

// JobReport describes one completed application.
type JobReport struct {
	ID        int
	Name      string
	Bin       int
	Submitted time.Time
	Admitted  time.Time
	Completed time.Time
	// Response is the job response time in spec seconds (wall response
	// divided by TimeScale).
	Response float64
	// Service is the consumed service in container-spec-seconds.
	Service float64
	// Failures counts failed task attempts (failure injection).
	Failures int
	// LocalTasks and RemoteTasks count first-stage tasks that ran on and off
	// their block-holding nodes (only populated for SubmitWithLocality jobs).
	LocalTasks  int
	RemoteTasks int
}

// Cluster is the live mini-YARN cluster. Create with New, then Start, Submit
// jobs, and Drain (or Shutdown).
type Cluster struct {
	cfg    Config
	policy sched.Scheduler

	rm    *resourceManager
	nodes []*nodeManager
	wg    sync.WaitGroup

	startOnce sync.Once
	stopOnce  sync.Once
	started   bool
}

// New builds a cluster around the given scheduling policy (which must be a
// fresh instance; it is invoked only from the ResourceManager goroutine).
func New(cfg Config, policy sched.Scheduler) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, errors.New("yarn: nil scheduler")
	}
	c := &Cluster{cfg: cfg, policy: policy}
	c.rm = newResourceManager(c)
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, newNodeManager(i, cfg.ContainersPerNode, c.rm.completions))
	}
	return c, nil
}

// Start launches the ResourceManager and NodeManager goroutines.
func (c *Cluster) Start() {
	c.startOnce.Do(func() {
		c.started = true
		for _, nm := range c.nodes {
			c.wg.Add(1)
			go func(nm *nodeManager) {
				defer c.wg.Done()
				nm.run()
			}(nm)
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.rm.run()
		}()
	})
}

// Locality describes data placement for a job's first (map) stage:
// PreferredNodes[task] lists the nodes holding that task's input block (from
// an HDFS-like store), and RemotePenalty multiplies a task's duration when it
// runs on a node that does not hold its block. The ResourceManager prefers a
// block-holding node with free containers and otherwise runs the task remote
// immediately (no delay scheduling).
type Locality struct {
	PreferredNodes [][]int
	RemotePenalty  float64
}

// TaskWork is real work executed by a task attempt: stage and task identify
// the unit. When a job is submitted with work, the spec's task durations act
// as the scheduler's progress estimates while actual completion happens when
// the work returns. Work runs on NodeManager goroutines and must be safe for
// concurrent invocation across tasks.
type TaskWork func(stage, task int)

// Submit hands a job to the admission module. The submission time is now.
// Submit must not be called after Shutdown.
func (c *Cluster) Submit(spec job.Spec) error {
	return c.submit(spec, nil, nil)
}

// SubmitWithLocality submits a simulated job whose first-stage tasks have
// block locations: tasks run data-local when possible and pay
// loc.RemotePenalty on their durations otherwise.
func (c *Cluster) SubmitWithLocality(spec job.Spec, loc Locality) error {
	if len(loc.PreferredNodes) != len(spec.Stages[0].Tasks) {
		return fmt.Errorf("yarn: job %d has %d first-stage tasks but %d block locations",
			spec.ID, len(spec.Stages[0].Tasks), len(loc.PreferredNodes))
	}
	if loc.RemotePenalty < 1 {
		return fmt.Errorf("yarn: remote penalty must be >= 1, got %v", loc.RemotePenalty)
	}
	for ti, nodes := range loc.PreferredNodes {
		for _, n := range nodes {
			if n < 0 || n >= c.cfg.Nodes {
				return fmt.Errorf("yarn: job %d task %d prefers unknown node %d", spec.ID, ti, n)
			}
		}
	}
	return c.submit(spec, nil, &loc)
}

// SubmitWithWork submits a job whose task attempts execute real work instead
// of sleeping out their specified durations (the durations remain the
// scheduler's progress estimates, as task-duration predictions are in real
// Hadoop).
func (c *Cluster) SubmitWithWork(spec job.Spec, work TaskWork) error {
	if work == nil {
		return errors.New("yarn: nil task work")
	}
	return c.submit(spec, work, nil)
}

func (c *Cluster) submit(spec job.Spec, work TaskWork, loc *Locality) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("yarn: %w", err)
	}
	for si := range spec.Stages {
		for _, t := range spec.Stages[si].Tasks {
			if t.Containers > c.cfg.ContainersPerNode {
				return fmt.Errorf("yarn: job %d has a task needing %d containers, above the per-node capacity %d",
					spec.ID, t.Containers, c.cfg.ContainersPerNode)
			}
		}
	}
	if !c.started {
		return errors.New("yarn: cluster not started")
	}
	c.rm.submissions <- submission{spec: spec, work: work, locality: loc}
	return nil
}

// submission pairs a job spec with its (optional) real work and locality.
type submission struct {
	spec     job.Spec
	work     TaskWork
	locality *Locality
}

// Drain blocks until every submitted job has completed (or ctx expires) and
// returns their reports in completion order.
func (c *Cluster) Drain(ctx context.Context) ([]JobReport, error) {
	done := make(chan []JobReport, 1)
	select {
	case c.rm.drainRequests <- done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case reports := <-done:
		return reports, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Shutdown stops the ResourceManager and all NodeManagers and waits for
// their goroutines to exit. Running task attempts are abandoned.
func (c *Cluster) Shutdown() {
	c.stopOnce.Do(func() {
		if !c.started {
			return
		}
		close(c.rm.quit)
		for _, nm := range c.nodes {
			close(nm.quit)
		}
		c.wg.Wait()
	})
}

// --- NodeManager ---

// launchRequest asks a node to run one task attempt.
type launchRequest struct {
	jobID      int
	stage      int
	task       int
	containers int
	duration   time.Duration
	// success is decided by the RM at launch (failure injection); a failed
	// attempt consumes its (truncated) duration without completing the task.
	success bool
	// work, when non-nil, is executed instead of sleeping out duration.
	work TaskWork
}

// completion reports a finished attempt back to the ResourceManager.
type completion struct {
	node       int
	jobID      int
	stage      int
	task       int
	containers int
	started    time.Time
	finished   time.Time
	success    bool
}

// nodeManager owns one node's containers and executes task attempts. Its
// free-container count is owned by the ResourceManager loop (the RM
// subtracts on launch; completions add back when the RM processes them), so
// no locking is needed.
type nodeManager struct {
	id       int
	capacity int

	launches    chan launchRequest
	completions chan<- completion
	quit        chan struct{}
	running     sync.WaitGroup
}

func newNodeManager(id, capacity int, completions chan<- completion) *nodeManager {
	return &nodeManager{
		id:          id,
		capacity:    capacity,
		launches:    make(chan launchRequest, capacity),
		completions: completions,
		quit:        make(chan struct{}),
	}
}

// run executes launch requests until quit, then waits for in-flight attempts.
func (n *nodeManager) run() {
	for {
		select {
		case req := <-n.launches:
			n.running.Add(1)
			go func(req launchRequest) {
				defer n.running.Done()
				started := time.Now()
				if req.work != nil {
					req.work(req.stage, req.task)
				} else {
					timer := time.NewTimer(req.duration)
					defer timer.Stop()
					select {
					case <-timer.C:
					case <-n.quit:
						return // abandoned on shutdown
					}
				}
				comp := completion{
					node:       n.id,
					jobID:      req.jobID,
					stage:      req.stage,
					task:       req.task,
					containers: req.containers,
					started:    started,
					finished:   time.Now(),
					success:    req.success,
				}
				select {
				case n.completions <- comp:
				case <-n.quit:
				}
			}(req)
		case <-n.quit:
			n.running.Wait()
			return
		}
	}
}

// --- ResourceManager ---

// resourceManager owns all cluster state and runs the scheduling loop: it is
// the only goroutine touching applications, node free-counts and the
// admission queue, so the design is lock-free by construction. Policies are
// driven through the scheduling-substrate kernel — the same admission
// module, slotted view registry and dense-or-map capability dispatch the
// simulators use — so the live cluster runs the policy code they do.
type resourceManager struct {
	cluster *Cluster

	submissions   chan submission
	completions   chan completion
	drainRequests chan chan []JobReport
	quit          chan struct{}

	driver  *substrate.Driver
	adm     *substrate.Queue[*application]
	vs      substrate.ViewSet
	quant   sched.Quantizer
	idOrder []*application // scratch: running in ascending job ID
	rows    []sched.QuantRow
	cands   []launchCand
	probe   obs.Probe

	// apps holds every unfinished application by ID, for completions to find
	// theirs; running lists the admitted ones in admission order, and is what
	// every round walks.
	apps      map[int]*application
	running   []*application
	rng       *rand.Rand
	remaining int
	freeOn    []int // free containers per node

	reports  []JobReport
	drainers []chan []JobReport
}

// launchCand is one application below its container target in a round.
type launchCand struct {
	app    *application
	target int
}

func newResourceManager(c *Cluster) *resourceManager {
	free := make([]int, c.cfg.Nodes)
	for i := range free {
		free[i] = c.cfg.ContainersPerNode
	}
	rm := &resourceManager{
		cluster:       c,
		submissions:   make(chan submission),
		completions:   make(chan completion, c.cfg.Nodes*c.cfg.ContainersPerNode),
		drainRequests: make(chan chan []JobReport),
		quit:          make(chan struct{}),
		driver:        substrate.NewDriver(c.policy),
		adm:           substrate.NewQueue[*application](c.cfg.MaxRunningJobs),
		apps:          make(map[int]*application),
		rng:           dist.New(c.cfg.Seed),
		freeOn:        free,
		probe:         c.cfg.Probe,
	}
	rm.driver.SetProbe(c.cfg.Probe)
	return rm
}

// specTime converts a wall-clock instant to the spec-second clock every
// telemetry event and policy invocation uses.
func (rm *resourceManager) specTime(t time.Time) float64 {
	return float64(t.UnixNano()) / float64(rm.cluster.cfg.TimeScale)
}

func (rm *resourceManager) run() {
	heartbeat := time.NewTicker(rm.cluster.cfg.HeartbeatInterval)
	defer heartbeat.Stop()
	for {
		select {
		case sub := <-rm.submissions:
			rm.handleSubmission(sub)
			rm.admitAndSchedule()
		case comp := <-rm.completions:
			rm.handleCompletion(comp)
			rm.admitAndSchedule()
		case <-heartbeat.C:
			rm.admitAndSchedule()
		case done := <-rm.drainRequests:
			if rm.remaining == 0 {
				done <- append([]JobReport(nil), rm.reports...)
			} else {
				rm.drainers = append(rm.drainers, done)
			}
		case <-rm.quit:
			return
		}
	}
}

func (rm *resourceManager) handleSubmission(sub submission) {
	app := newApplication(sub.spec, time.Now())
	app.work = sub.work
	app.locality = sub.locality
	rm.apps[sub.spec.ID] = app
	rm.adm.Push(app)
	rm.remaining++
	if rm.probe != nil {
		rm.probe.JobSubmitted(rm.specTime(app.submittedAt), app.spec.ID)
	}
}

func (rm *resourceManager) admit() {
	rm.adm.Admit(func(app *application, seq int) {
		app.admittedAt = time.Now()
		app.seq = seq
		app.slot = rm.vs.TakeSlot()
		rm.running = append(rm.running, app)
		if rm.probe != nil {
			waited := float64(app.admittedAt.Sub(app.submittedAt)) / float64(rm.cluster.cfg.TimeScale)
			rm.probe.JobAdmitted(rm.specTime(app.admittedAt), app.spec.ID, waited)
		}
	})
}

func (rm *resourceManager) handleCompletion(comp completion) {
	rm.freeOn[comp.node] += comp.containers
	app, ok := rm.apps[comp.jobID]
	if !ok {
		return
	}
	app.completeTask(comp, rm.cluster.cfg.TimeScale)
	if rm.probe != nil {
		now, start := rm.specTime(comp.finished), rm.specTime(comp.started)
		if comp.success {
			rm.probe.TaskDone(now, comp.jobID, comp.stage, comp.task, start, false)
			if app.stages[comp.stage].completed {
				rm.probe.StageDone(now, comp.jobID, comp.stage)
			}
		} else {
			rm.probe.TaskFail(now, comp.jobID, comp.stage, comp.task, start)
		}
	}
	if app.done() {
		rm.finishApp(app)
	}
}

func (rm *resourceManager) finishApp(app *application) {
	now := time.Now()
	rm.adm.Done()
	rm.remaining--
	scale := float64(rm.cluster.cfg.TimeScale)
	rm.reports = append(rm.reports, JobReport{
		ID:          app.spec.ID,
		Name:        app.spec.Name,
		Bin:         app.spec.Bin,
		Submitted:   app.submittedAt,
		Admitted:    app.admittedAt,
		Completed:   now,
		Response:    float64(now.Sub(app.submittedAt)) / scale,
		Service:     app.finalizedService,
		Failures:    app.failures,
		LocalTasks:  app.localTasks,
		RemoteTasks: app.remoteTasks,
	})
	if rm.probe != nil {
		rm.probe.JobDone(rm.specTime(now), app.spec.ID, rm.reports[len(rm.reports)-1].Response)
	}
	delete(rm.apps, app.spec.ID)
	k := slices.Index(rm.running, app)
	rm.running = slices.Delete(rm.running, k, k+1)
	rm.vs.FreeSlot(app.slot)
	if rm.remaining == 0 {
		for _, done := range rm.drainers {
			done <- append([]JobReport(nil), rm.reports...)
		}
		rm.drainers = nil
	}
}

// admitAndSchedule is the heart of the RM: release waiting applications,
// query the policy for per-job container targets, and launch ready tasks
// onto nodes (first fit), reserving free containers for the preferred job
// when its multi-container task does not fit yet.
//
// Rounds that provably cannot launch a task — the cluster is saturated, or
// no admitted application has a ready task — skip the full policy
// invocation; the kernel driver replays only the policy's state mutation
// (sched.Observer), so stateful policies (LAS_MQ demotions, Adaptive
// completion history) keep their internal clocks in sync on the live
// cluster instead of silently missing those instants.
func (rm *resourceManager) admitAndSchedule() {
	rm.admit()
	if len(rm.running) == 0 {
		return
	}
	now := time.Now()
	scale := rm.cluster.cfg.TimeScale
	policyNow := float64(now.UnixNano()) / float64(scale)

	ready := 0.0
	rm.vs.Begin(false, false)
	for i, app := range rm.running {
		app.viewIdx = i
		rm.vs.AddSlot(app.view(now, scale), app.slot)
		ready += app.readyDemand()
	}
	if rm.totalFree() == 0 || ready == 0 {
		if rm.probe != nil {
			rm.probe.RoundSkipped(policyNow, rm.driver.Observes())
		}
		rm.driver.Observe(policyNow, &rm.vs)
		return
	}

	capacity := rm.cluster.cfg.Nodes * rm.cluster.cfg.ContainersPerNode
	shares := rm.driver.Shares(policyNow, float64(capacity), &rm.vs)

	// Quantize the shares: one row per running application in ascending job
	// ID, the order the share total is summed in (running is in admission
	// order).
	ordered := rm.running
	if !slices.IsSortedFunc(ordered, compareAppID) {
		ordered = append(rm.idOrder[:0], rm.running...)
		slices.SortFunc(ordered, compareAppID)
		rm.idOrder = ordered
	}
	rows := rm.rows[:0]
	for _, app := range ordered {
		rows = append(rows, sched.QuantRow{ID: app.spec.ID, Share: shares[app.viewIdx], Demand: app.readyDemand()})
	}
	rm.rows = rows
	rm.quant.QuantizeRows(rows, capacity)

	cands := rm.cands[:0]
	for i, app := range ordered {
		if t := rows[i].Target; t > app.usage {
			cands = append(cands, launchCand{app: app, target: t})
		}
	}
	rm.cands = cands
	// Largest deficit first; admission sequences are unique, so the order is
	// total and needs no stable sort.
	slices.SortFunc(cands, func(a, b launchCand) int {
		if c := cmp.Compare(b.target-b.app.usage, a.target-a.app.usage); c != 0 {
			return c
		}
		return cmp.Compare(a.app.seq, b.app.seq)
	})

	reserved := 0
	for _, c := range cands {
		for c.app.usage < c.target {
			launched, need := rm.launchNext(c.app, reserved)
			if launched {
				continue
			}
			if need > 0 {
				free := rm.totalFree()
				if need > free {
					need = free
				}
				reserved += need
			}
			break
		}
	}
	// Work conservation: leftover (unreserved) containers go to any ready
	// task, round-robin across applications.
	progress := true
	for progress && rm.totalFree() > reserved {
		progress = false
		for _, app := range rm.running {
			if launched, _ := rm.launchNext(app, reserved); launched {
				progress = true
			}
		}
	}
}

func compareAppID(a, b *application) int { return cmp.Compare(a.spec.ID, b.spec.ID) }

func (rm *resourceManager) totalFree() int {
	total := 0
	for _, f := range rm.freeOn {
		total += f
	}
	return total
}

// launchNext starts the application's next ready task on the first node with
// room, honoring reservations. When the task does not fit anywhere, need
// reports its container requirement.
func (rm *resourceManager) launchNext(app *application, reserved int) (launched bool, need int) {
	spec, stage, taskIdx, ok := app.peekReady()
	if !ok {
		return false, 0
	}
	if rm.totalFree()-reserved < spec.Containers {
		return false, spec.Containers
	}
	// Locality: prefer a block-holding node when this is a first-stage task
	// of a locality-aware job.
	node := -1
	local := false
	if app.locality != nil && stage == 0 {
		for _, n := range app.locality.PreferredNodes[taskIdx] {
			if rm.freeOn[n] >= spec.Containers {
				node, local = n, true
				break
			}
		}
	}
	if node < 0 {
		// First fit: a multi-container task must fit on one node (as in YARN).
		for n, free := range rm.freeOn {
			if free >= spec.Containers {
				node = n
				break
			}
		}
	}
	if node >= 0 {
		rm.freeOn[node] -= spec.Containers
		start := time.Now()
		if rm.probe != nil {
			if !app.started {
				app.started = true
				rm.probe.JobStarted(rm.specTime(start), app.spec.ID)
			}
			rm.probe.TaskStart(rm.specTime(start), app.spec.ID, stage, taskIdx, spec.Containers, false)
		}
		app.markLaunched(stage, taskIdx, spec.Containers, start)
		// Failure injection: a failed attempt dies after a uniform fraction
		// of its duration without completing the task. Real work (TaskWork)
		// is never failure-injected: its outcome is the work itself.
		duration := spec.Duration
		if app.locality != nil && stage == 0 {
			if local {
				app.localTasks++
			} else {
				app.remoteTasks++
				duration *= app.locality.RemotePenalty
			}
		}
		success := true
		if p := rm.cluster.cfg.FailureProb; p > 0 && app.work == nil && rm.rng.Float64() < p {
			success = false
			duration *= rm.rng.Float64()
		}
		rm.cluster.nodes[node].launches <- launchRequest{
			jobID:      app.spec.ID,
			stage:      stage,
			task:       taskIdx,
			containers: spec.Containers,
			duration:   time.Duration(duration * float64(rm.cluster.cfg.TimeScale)),
			success:    success,
			work:       app.work,
		}
		return true, 0
	}
	// Fragmented: fits in total but not on any single node.
	return false, spec.Containers
}
