package yarn

import (
	"context"
	"strings"
	"testing"
	"time"

	"lasmq/internal/core"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// fastConfig keeps live tests quick: a small cluster at 1 ms per spec second.
func fastConfig() Config {
	return Config{
		Nodes:             2,
		ContainersPerNode: 4,
		MaxRunningJobs:    0,
		TimeScale:         time.Millisecond,
		HeartbeatInterval: 2 * time.Millisecond,
	}
}

func uniformJob(id int, n int, duration float64) job.Spec {
	tasks := make([]job.TaskSpec, n)
	for i := range tasks {
		tasks[i] = job.TaskSpec{Duration: duration, Containers: 1}
	}
	return job.Spec{
		ID: id, Name: "uniform", Bin: 1, Priority: 1,
		Stages: []job.StageSpec{{Name: "map", Tasks: tasks}},
	}
}

func mapReduceJob(id, nMap int, mapDur float64, nReduce int, redDur float64) job.Spec {
	maps := make([]job.TaskSpec, nMap)
	for i := range maps {
		maps[i] = job.TaskSpec{Duration: mapDur, Containers: 1}
	}
	reduces := make([]job.TaskSpec, nReduce)
	for i := range reduces {
		reduces[i] = job.TaskSpec{Duration: redDur, Containers: 2}
	}
	return job.Spec{
		ID: id, Name: "mapreduce", Bin: 2, Priority: 1,
		Stages: []job.StageSpec{
			{Name: "map", Tasks: maps},
			{Name: "reduce", Tasks: reduces},
		},
	}
}

func drain(t *testing.T, c *Cluster) []JobReport {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reports, err := c.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return reports
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.ContainersPerNode = 0 },
		func(c *Config) { c.MaxRunningJobs = -1 },
		func(c *Config) { c.TimeScale = 0 },
		func(c *Config) { c.HeartbeatInterval = 0 },
	}
	for i, mutate := range mutations {
		cfg := fastConfig()
		mutate(&cfg)
		if _, err := New(cfg, sched.NewFIFO()); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
	if _, err := New(fastConfig(), nil); err == nil {
		t.Error("expected error for nil scheduler")
	}
}

func TestSingleJobCompletes(t *testing.T) {
	c, err := New(fastConfig(), sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()

	spec := uniformJob(1, 8, 20) // 8 tasks of 20 spec-seconds on 8 containers
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	reports := drain(t, c)
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	// All 8 tasks run in parallel: response ~20 spec seconds; timers can
	// only fire late, never early.
	if r.Response < 20 {
		t.Errorf("response = %v spec-seconds, below the physical minimum 20", r.Response)
	}
	if r.Response > 200 {
		t.Errorf("response = %v spec-seconds, want roughly 20 (scheduling overhead too high)", r.Response)
	}
	// Consumed service is at least the nominal total (8 x 20 = 160).
	if r.Service < 160*0.99 {
		t.Errorf("service = %v, want >= 160", r.Service)
	}
}

func TestStageDependencyLive(t *testing.T) {
	c, err := New(fastConfig(), sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()

	// 4 maps of 20 then 2 reduces of 10: response >= 30 spec seconds.
	if err := c.Submit(mapReduceJob(1, 4, 20, 2, 10)); err != nil {
		t.Fatal(err)
	}
	reports := drain(t, c)
	if r := reports[0].Response; r < 30 {
		t.Errorf("response = %v, below map+reduce minimum 30", r)
	}
}

func TestLASMQPrioritizesSmallJobLive(t *testing.T) {
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	watch := &startWatch{id: 1, started: make(chan struct{})}
	cfg.Probe = watch
	c, err := New(cfg, mq)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()

	// A large job grabs the cluster; a small job arrives once it holds it and
	// must overtake it once the large job is demoted.
	large := uniformJob(1, 64, 50)
	small := uniformJob(2, 2, 5)
	if err := c.Submit(large); err != nil {
		t.Fatal(err)
	}
	watch.wait(t)
	if err := c.Submit(small); err != nil {
		t.Fatal(err)
	}
	reports := drain(t, c)
	byID := make(map[int]JobReport, len(reports))
	for _, r := range reports {
		byID[r.ID] = r
	}
	if !byID[2].Completed.Before(byID[1].Completed) {
		t.Errorf("small job (done %v) did not overtake large job (done %v)",
			byID[2].Completed, byID[1].Completed)
	}
	// The small job should finish in a small multiple of its isolated time
	// (2 tasks x 5 s on a free-ish cluster), far below the large job's span.
	if byID[2].Response > byID[1].Response/2 {
		t.Errorf("small job response %v not well below large job's %v",
			byID[2].Response, byID[1].Response)
	}
}

// startWatch is a probe that closes started when job id launches its first
// task attempt.
type startWatch struct {
	obs.Nop
	id      int
	started chan struct{}
}

func (w *startWatch) JobStarted(_ float64, job int) {
	if job == w.id {
		close(w.started)
	}
}

// wait blocks until the job has launched its first task attempt.
func (w *startWatch) wait(t *testing.T) {
	t.Helper()
	select {
	case <-w.started:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %d never started", w.id)
	}
}

func TestFIFOBlocksSmallJobLive(t *testing.T) {
	cfg := fastConfig()
	watch := &startWatch{id: 1, started: make(chan struct{})}
	cfg.Probe = watch
	c, err := New(cfg, sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()

	large := uniformJob(1, 64, 20)
	small := uniformJob(2, 2, 5)
	if err := c.Submit(large); err != nil {
		t.Fatal(err)
	}
	// The small job arrives once the large one holds the cluster.
	watch.wait(t)
	if err := c.Submit(small); err != nil {
		t.Fatal(err)
	}
	reports := drain(t, c)
	byID := make(map[int]JobReport, len(reports))
	for _, r := range reports {
		byID[r.ID] = r
	}
	// Under FIFO the small job waits for most of the large one: its response
	// must be several times its isolated runtime (5 spec seconds).
	if byID[2].Response < 25 {
		t.Errorf("small job response %v under FIFO suspiciously small (no head-of-line blocking?)",
			byID[2].Response)
	}
}

func TestAdmissionLimitLive(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxRunningJobs = 1
	c, err := New(cfg, sched.NewFair())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()

	if err := c.Submit(uniformJob(1, 4, 30)); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(uniformJob(2, 4, 30)); err != nil {
		t.Fatal(err)
	}
	reports := drain(t, c)
	byID := make(map[int]JobReport, len(reports))
	for _, r := range reports {
		byID[r.ID] = r
	}
	// Job 2 is admitted only after job 1 completes.
	if byID[2].Admitted.Before(byID[1].Completed) {
		t.Errorf("job 2 admitted at %v before job 1 completed at %v",
			byID[2].Admitted, byID[1].Completed)
	}
}

func TestReduceTasksNeedSingleNode(t *testing.T) {
	cfg := fastConfig() // 2 nodes x 4 containers
	c, err := New(cfg, sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()

	// Reduce tasks of 2 containers fit on a node; the job must complete.
	if err := c.Submit(mapReduceJob(1, 8, 10, 4, 10)); err != nil {
		t.Fatal(err)
	}
	reports := drain(t, c)
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
}

func TestSubmitRejectsOversizedTask(t *testing.T) {
	cfg := fastConfig() // 4 containers per node
	c, err := New(cfg, sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()

	bad := job.Spec{
		ID: 1, Name: "wide", Priority: 1,
		Stages: []job.StageSpec{{Name: "map", Tasks: []job.TaskSpec{{Duration: 1, Containers: 5}}}},
	}
	err = c.Submit(bad)
	if err == nil || !strings.Contains(err.Error(), "per-node capacity") {
		t.Errorf("Submit = %v, want per-node capacity error", err)
	}
}

func TestSubmitBeforeStart(t *testing.T) {
	c, err := New(fastConfig(), sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(uniformJob(1, 1, 1)); err == nil {
		t.Error("expected error submitting before Start")
	}
	c.Start()
	c.Shutdown()
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	c, err := New(fastConfig(), sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()
	bad := uniformJob(1, 1, 1)
	bad.Stages[0].Tasks[0].Duration = -1
	if err := c.Submit(bad); err == nil {
		t.Error("expected error for invalid spec")
	}
}

func TestDrainContextCancel(t *testing.T) {
	c, err := New(fastConfig(), sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()
	if err := c.Submit(uniformJob(1, 8, 5000)); err != nil { // long job
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Drain(ctx); err == nil {
		t.Error("expected context deadline error from Drain")
	}
}

func TestShutdownWithRunningTasks(t *testing.T) {
	cfg := fastConfig()
	watch := &startWatch{id: 1, started: make(chan struct{})}
	cfg.Probe = watch
	c, err := New(cfg, sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if err := c.Submit(uniformJob(1, 8, 10000)); err != nil {
		t.Fatal(err)
	}
	watch.wait(t) // its first TaskStart: tasks are running
	done := make(chan struct{})
	go func() {
		c.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return with running tasks")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	c, err := New(fastConfig(), sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Shutdown()
	c.Shutdown() // must not panic or block
}

func TestFailureInjectionLive(t *testing.T) {
	cfg := fastConfig()
	cfg.FailureProb = 0.3
	cfg.Seed = 9
	c, err := New(cfg, sched.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()

	spec := uniformJob(1, 24, 5)
	if err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	reports := drain(t, c)
	r := reports[0]
	if r.Failures == 0 {
		t.Error("expected failed attempts at FailureProb=0.3")
	}
	// Every task still completed despite retries, and the consumed service
	// exceeds the nominal total (failed attempts burn containers).
	if r.Service <= spec.TotalService() {
		t.Errorf("service %v should exceed nominal %v with failures", r.Service, spec.TotalService())
	}
}

func TestFailureProbValidationLive(t *testing.T) {
	cfg := fastConfig()
	cfg.FailureProb = 1
	if _, err := New(cfg, sched.NewFIFO()); err == nil {
		t.Error("expected validation error for failure probability 1")
	}
}

func TestManyJobsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster load test")
	}
	cfg := Config{
		Nodes:             4,
		ContainersPerNode: 8,
		MaxRunningJobs:    6,
		TimeScale:         200 * time.Microsecond,
		HeartbeatInterval: time.Millisecond,
	}
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, mq)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Shutdown()

	var totalService float64
	const jobs = 20
	for i := 1; i <= jobs; i++ {
		var spec job.Spec
		if i%4 == 0 {
			spec = mapReduceJob(i, 12, 15, 3, 10)
		} else {
			spec = uniformJob(i, 6, 10)
		}
		totalService += spec.TotalService()
		if err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	reports := drain(t, c)
	if len(reports) != jobs {
		t.Fatalf("got %d reports, want %d", len(reports), jobs)
	}
	var consumed float64
	for _, r := range reports {
		if r.Response <= 0 {
			t.Errorf("job %d response %v", r.ID, r.Response)
		}
		consumed += r.Service
	}
	// Timers never fire early, so consumed >= nominal.
	if consumed < totalService*0.99 {
		t.Errorf("consumed service %v below nominal %v", consumed, totalService)
	}
}

// --- White-box application accounting tests (no goroutines) ---

func TestApplicationAccounting(t *testing.T) {
	spec := mapReduceJob(1, 2, 10, 1, 5)
	base := time.Now()
	app := newApplication(spec, base)
	scale := time.Millisecond

	if app.done() {
		t.Fatal("new application already done")
	}
	ts, stage, idx, ok := app.peekReady()
	if !ok || stage != 0 || ts.Containers != 1 {
		t.Fatalf("peekReady = %+v stage %d ok=%v", ts, stage, ok)
	}

	// Launch both maps at t0, complete at t0+10ms (10 spec seconds).
	app.markLaunched(0, 0, 1, base)
	_, _, idx2, _ := app.peekReady()
	app.markLaunched(0, idx2, 1, base)
	if app.usage != 2 {
		t.Fatalf("usage = %d, want 2", app.usage)
	}
	mid := base.Add(5 * time.Millisecond)
	if got := app.attained(mid, scale); got < 9.9 || got > 10.1 {
		t.Errorf("attained mid-map = %v, want ~10 (2 containers x 5 s)", got)
	}
	// Stage-aware estimate at 50% progress: ~20 (stage total).
	if got := app.estimated(mid, scale); got < 19 || got > 21 {
		t.Errorf("estimated mid-map = %v, want ~20", got)
	}

	end := base.Add(10 * time.Millisecond)
	for _, taskIdx := range []int{idx, idx2} {
		app.completeTask(completion{
			jobID: 1, stage: 0, task: taskIdx, containers: 1,
			started: base, finished: end, success: true,
		}, scale)
	}
	if app.doneStages != 1 || len(app.activeStages) != 1 || app.activeStages[0] != 1 {
		t.Fatalf("after map stage: doneStages=%d activeStages=%v, want reduce stage active",
			app.doneStages, app.activeStages)
	}
	if got := app.attained(end, scale); got < 19.9 || got > 20.1 {
		t.Errorf("attained after maps = %v, want 20", got)
	}

	// Reduce: 2 containers for 5 spec seconds.
	ts, stage, idx, ok = app.peekReady()
	if !ok || stage != 1 || ts.Containers != 2 {
		t.Fatalf("reduce peekReady = %+v stage %d ok %v", ts, stage, ok)
	}
	app.markLaunched(1, idx, 2, end)
	app.completeTask(completion{
		jobID: 1, stage: 1, task: idx, containers: 2,
		started: end, finished: end.Add(5 * time.Millisecond), success: true,
	}, scale)
	if !app.done() {
		t.Fatal("application not done after all stages")
	}
	if got := app.finalizedService; got < 29.9 || got > 30.1 {
		t.Errorf("final service = %v, want 30", got)
	}
}

func TestApplicationViewDemands(t *testing.T) {
	spec := mapReduceJob(1, 3, 10, 2, 5)
	app := newApplication(spec, time.Now())
	v := app.view(time.Now(), time.Millisecond)
	if got := v.ReadyDemand(); got != 3 {
		t.Errorf("ReadyDemand = %v, want 3 maps", got)
	}
	if got := v.RemainingDemand(); got != 7 {
		t.Errorf("RemainingDemand = %v, want 3 + 2x2", got)
	}
	if got := v.SizeHint(); got != spec.TotalService() {
		t.Errorf("SizeHint = %v, want %v", got, spec.TotalService())
	}
}

// observingScheduler forwards Assign to the wrapped policy and counts the
// Observe updates the kernel driver delivers on rounds that cannot launch
// tasks. Counters are only read after Shutdown, when the RM goroutine that
// calls the policy has exited.
type observingScheduler struct {
	inner sched.Scheduler
	fwd   sched.Observer // non-nil when inner is stateful

	assigns      int
	observes     int
	observedJobs int
}

func (o *observingScheduler) Name() string { return o.inner.Name() }

func (o *observingScheduler) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	o.assigns++
	return o.inner.Assign(now, capacity, jobs)
}

func (o *observingScheduler) Observe(now float64, jobs []sched.JobView) {
	o.observes++
	o.observedJobs += len(jobs)
	if o.fwd != nil {
		o.fwd.Observe(now, jobs)
	}
}

// TestAdaptiveReceivesObserveLive shows a stateful policy getting Observe
// updates on the live cluster: once every task of every admitted job is
// launched, nothing is ready, so heartbeat rounds cannot launch anything —
// the RM skips the full policy invocation and the kernel driver replays the
// state mutation via Observe instead (previously those instants were
// silently dropped).
func TestAdaptiveReceivesObserveLive(t *testing.T) {
	adaptive, err := core.NewAdaptive(core.DefaultAdaptiveConfig())
	if err != nil {
		t.Fatalf("adaptive: %v", err)
	}
	wrapped := &observingScheduler{inner: adaptive, fwd: adaptive}
	c, err := New(fastConfig(), wrapped)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	c.Start()
	// Single-task jobs long enough (40-60 ms wall at the test's 1 ms scale,
	// vs. the 2 ms heartbeat) that many heartbeats fire while both tasks run
	// and nothing is ready.
	if err := c.Submit(uniformJob(1, 1, 40)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Submit(uniformJob(2, 1, 60)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	reports := drain(t, c)
	c.Shutdown()
	if len(reports) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(reports))
	}
	if wrapped.assigns == 0 {
		t.Fatal("expected full scheduling rounds to reach the policy")
	}
	if wrapped.observes == 0 {
		t.Fatal("expected Observe updates on rounds with nothing to launch")
	}
	if wrapped.observedJobs == 0 {
		t.Fatal("Observe updates carried no job views")
	}
}

// TestAdmissionLimitEdgeCasesLive drives the kernel admission queue through
// its edge cases on the live cluster: limit 0 (unlimited) and a limit above
// the job count must both admit everything and complete the workload.
func TestAdmissionLimitEdgeCasesLive(t *testing.T) {
	for _, limit := range []int{0, 50} {
		cfg := fastConfig()
		cfg.MaxRunningJobs = limit
		c, err := New(cfg, sched.NewFIFO())
		if err != nil {
			t.Fatalf("limit %d: new cluster: %v", limit, err)
		}
		c.Start()
		for id := 1; id <= 3; id++ {
			if err := c.Submit(uniformJob(id, 2, 10)); err != nil {
				t.Fatalf("limit %d: submit %d: %v", limit, id, err)
			}
		}
		reports := drain(t, c)
		c.Shutdown()
		if len(reports) != 3 {
			t.Fatalf("limit %d: completed %d jobs, want 3", limit, len(reports))
		}
		for _, r := range reports {
			if r.Response <= 0 {
				t.Errorf("limit %d: job %d has response %v", limit, r.ID, r.Response)
			}
		}
	}
}
