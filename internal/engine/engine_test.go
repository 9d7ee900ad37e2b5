package engine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/sched"
)

// uniformJob builds a job with one map-like stage of n tasks.
func uniformJob(id int, arrival float64, n int, duration float64) job.Spec {
	tasks := make([]job.TaskSpec, n)
	for i := range tasks {
		tasks[i] = job.TaskSpec{Duration: duration, Containers: 1}
	}
	return job.Spec{
		ID:       id,
		Name:     "uniform",
		Bin:      1,
		Priority: 1,
		Arrival:  arrival,
		Stages:   []job.StageSpec{{Name: "map", Tasks: tasks}},
	}
}

// mapReduceJob builds a two-stage job: nMap 1-container map tasks followed by
// nReduce 2-container reduce tasks.
func mapReduceJob(id int, arrival float64, nMap int, mapDur float64, nReduce int, redDur float64) job.Spec {
	maps := make([]job.TaskSpec, nMap)
	for i := range maps {
		maps[i] = job.TaskSpec{Duration: mapDur, Containers: 1}
	}
	reduces := make([]job.TaskSpec, nReduce)
	for i := range reduces {
		reduces[i] = job.TaskSpec{Duration: redDur, Containers: 2}
	}
	return job.Spec{
		ID:       id,
		Name:     "mapreduce",
		Bin:      2,
		Priority: 1,
		Arrival:  arrival,
		Stages: []job.StageSpec{
			{Name: "map", Tasks: maps},
			{Name: "reduce", Tasks: reduces},
		},
	}
}

func smallConfig(containers int) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Containers = containers
	cfg.MaxRunningJobs = 0
	return cfg
}

func newLASMQ(t *testing.T) *core.LASMQ {
	t.Helper()
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleJobCompletesAtDuration(t *testing.T) {
	specs := []job.Spec{uniformJob(1, 0, 4, 10)}
	res, err := engine.Run(specs, sched.NewFIFO(), smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].ResponseTime; got != 10 {
		t.Errorf("response time = %v, want 10 (all tasks in parallel)", got)
	}
	if res.Makespan != 10 {
		t.Errorf("makespan = %v, want 10", res.Makespan)
	}
}

func TestWavesWhenCapacityScarce(t *testing.T) {
	// 10 tasks of 10s on 5 containers -> two waves -> 20s.
	specs := []job.Spec{uniformJob(1, 0, 10, 10)}
	res, err := engine.Run(specs, sched.NewFIFO(), smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].ResponseTime; got != 20 {
		t.Errorf("response time = %v, want 20 (two waves)", got)
	}
}

func TestStageDependency(t *testing.T) {
	// Map stage (10s) must complete before the reduce stage (5s) starts.
	specs := []job.Spec{mapReduceJob(1, 0, 4, 10, 2, 5)}
	res, err := engine.Run(specs, sched.NewFIFO(), smallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].ResponseTime; got != 15 {
		t.Errorf("response time = %v, want 15 (map 10 + reduce 5)", got)
	}
}

func TestReduceTasksUseTwoContainers(t *testing.T) {
	// 4 reduce tasks x 2 containers on 5 containers: only 2 at a time.
	specs := []job.Spec{mapReduceJob(1, 0, 1, 1, 4, 10)}
	res, err := engine.Run(specs, sched.NewFIFO(), smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].ResponseTime; got != 21 {
		t.Errorf("response time = %v, want 21 (1 map + 2 reduce waves)", got)
	}
}

func TestResponseTimeIncludesArrival(t *testing.T) {
	specs := []job.Spec{uniformJob(1, 100, 2, 10)}
	res, err := engine.Run(specs, sched.NewFIFO(), smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].Completed; got != 110 {
		t.Errorf("completed = %v, want 110", got)
	}
	if got := res.Jobs[0].ResponseTime; got != 10 {
		t.Errorf("response = %v, want 10", got)
	}
}

func TestAdmissionControlSerializesJobs(t *testing.T) {
	cfg := smallConfig(100)
	cfg.MaxRunningJobs = 1
	specs := []job.Spec{
		uniformJob(1, 0, 2, 10),
		uniformJob(2, 0, 2, 10),
	}
	res, err := engine.Run(specs, sched.NewFIFO(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Jobs[0].ResponseTime; got != 10 {
		t.Errorf("job 1 response = %v, want 10", got)
	}
	// Job 2 waits in the admission queue until job 1 finishes.
	if got := res.Jobs[1].Admitted; got != 10 {
		t.Errorf("job 2 admitted = %v, want 10", got)
	}
	if got := res.Jobs[1].ResponseTime; got != 20 {
		t.Errorf("job 2 response = %v, want 20 (includes admission wait)", got)
	}
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	// A large job ahead of a small one: FIFO delays the small job, while
	// LAS_MQ lets it overtake once the large job is demoted.
	large := uniformJob(1, 0, 40, 100)
	small := uniformJob(2, 1, 2, 1)
	cfg := smallConfig(10)

	fifoRes, err := engine.Run([]job.Spec{large, small}, sched.NewFIFO(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mqRes, err := engine.Run([]job.Spec{large, small}, mq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fifoSmall := fifoRes.Jobs[1].ResponseTime
	mqSmall := mqRes.Jobs[1].ResponseTime
	if mqSmall >= fifoSmall {
		t.Errorf("LAS_MQ small-job response %v not better than FIFO %v", mqSmall, fifoSmall)
	}
	if fifoSmall < 300 {
		t.Errorf("FIFO small-job response %v suspiciously small; head-of-line blocking not modeled?", fifoSmall)
	}
}

func TestServiceAccountingExact(t *testing.T) {
	specs := []job.Spec{
		mapReduceJob(1, 0, 7, 13, 3, 9),
		uniformJob(2, 5, 11, 4),
	}
	res, err := engine.Run(specs, sched.NewFair(), smallConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range res.Jobs {
		want := specs[i].TotalService()
		if math.Abs(jr.Service-want) > 1e-6 {
			t.Errorf("job %d consumed service %v, want %v", jr.ID, jr.Service, want)
		}
	}
}

func TestMakespanLowerBound(t *testing.T) {
	specs := []job.Spec{
		uniformJob(1, 0, 20, 10),
		uniformJob(2, 0, 20, 10),
	}
	res, err := engine.Run(specs, sched.NewFair(), smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := range specs {
		total += specs[i].TotalService()
	}
	bound := total / 8
	if res.Makespan < bound-1e-9 {
		t.Errorf("makespan %v below capacity bound %v: capacity overcommitted", res.Makespan, bound)
	}
}

func TestFailuresRetryUntilSuccess(t *testing.T) {
	cfg := smallConfig(4)
	cfg.FailureProb = 0.3
	cfg.Seed = 42
	specs := []job.Spec{uniformJob(1, 0, 20, 5)}
	res, err := engine.Run(specs, sched.NewFIFO(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if jr.Failures == 0 {
		t.Error("expected some failed attempts with FailureProb=0.3")
	}
	if jr.Attempts != 20+jr.Failures {
		t.Errorf("attempts = %d, want tasks + failures = %d", jr.Attempts, 20+jr.Failures)
	}
	if jr.Service <= specs[0].TotalService() {
		t.Errorf("service %v should exceed nominal %v when attempts fail", jr.Service, specs[0].TotalService())
	}
	if jr.ResponseTime <= 25 {
		t.Errorf("response %v should exceed failure-free 25", jr.ResponseTime)
	}
}

func TestStragglersSlowJobDown(t *testing.T) {
	base := smallConfig(4)
	specs := []job.Spec{uniformJob(1, 0, 8, 10)}
	clean, err := engine.Run(specs, sched.NewFIFO(), base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.StragglerProb = 0.5
	slow.StragglerFactor = 4
	slow.Seed = 7
	straggled, err := engine.Run(specs, sched.NewFIFO(), slow)
	if err != nil {
		t.Fatal(err)
	}
	if straggled.Jobs[0].ResponseTime <= clean.Jobs[0].ResponseTime {
		t.Errorf("straggler run %v not slower than clean run %v",
			straggled.Jobs[0].ResponseTime, clean.Jobs[0].ResponseTime)
	}
}

func TestSpeculationMitigatesStragglers(t *testing.T) {
	cfg := smallConfig(16)
	cfg.StragglerProb = 0.3
	cfg.StragglerFactor = 8
	cfg.Seed = 11
	specs := []job.Spec{uniformJob(1, 0, 8, 10)}

	plain, err := engine.Run(specs, sched.NewFIFO(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Speculation = true
	spec, err := engine.Run(specs, sched.NewFIFO(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Jobs[0].Speculative == 0 {
		t.Error("no speculative attempts launched despite free containers")
	}
	if spec.Jobs[0].ResponseTime > plain.Jobs[0].ResponseTime {
		t.Errorf("speculation made the job slower: %v > %v",
			spec.Jobs[0].ResponseTime, plain.Jobs[0].ResponseTime)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := smallConfig(8)
	cfg.FailureProb = 0.2
	cfg.StragglerProb = 0.2
	cfg.StragglerFactor = 3
	cfg.Seed = 99
	specs := []job.Spec{
		mapReduceJob(1, 0, 9, 7, 4, 5),
		uniformJob(2, 3, 6, 11),
	}
	a, err := engine.Run(specs, sched.NewLAS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Run(specs, sched.NewLAS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Errorf("job %d results differ across identical runs:\n%+v\n%+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}

func TestRunIsolated(t *testing.T) {
	spec := uniformJob(1, 500, 10, 10)
	got, err := engine.RunIsolated(spec, sched.NewFIFO(), smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("isolated runtime = %v, want 20 (arrival ignored)", got)
	}
}

func TestOversizedTaskDeadlocks(t *testing.T) {
	spec := job.Spec{
		ID: 1, Name: "huge", Priority: 1,
		Stages: []job.StageSpec{{Name: "map", Tasks: []job.TaskSpec{{Duration: 1, Containers: 10}}}},
	}
	_, err := engine.Run([]job.Spec{spec}, sched.NewFIFO(), smallConfig(2))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock error for task larger than the cluster", err)
	}
}

// brokenShares is a buggy policy: the first job's share is not finite.
type brokenShares struct{ share float64 }

func (brokenShares) Name() string { return "BROKEN" }
func (p brokenShares) Assign(_, _ float64, jobs []sched.JobView) sched.Assignment {
	alloc := sched.Assignment{}
	for i, v := range jobs {
		alloc[v.ID()] = 1
		if i == 0 {
			alloc[v.ID()] = p.share
		}
	}
	return alloc
}

// TestNonFiniteShareDoesNotHangRun: a policy that hands out +Inf or NaN used
// to spin the quantizer's trim loop forever; the run must finish (the
// work-conserving backfill still serves the job whose share was dropped).
func TestNonFiniteShareDoesNotHangRun(t *testing.T) {
	specs := []job.Spec{uniformJob(1, 0, 6, 2), uniformJob(2, 0, 6, 2), mapReduceJob(3, 1, 4, 2, 2, 3)}
	for _, share := range []float64{math.Inf(1), math.NaN()} {
		done := make(chan error, 1)
		go func() {
			res, err := engine.Run(specs, brokenShares{share}, smallConfig(4))
			if err == nil && len(res.Jobs) != len(specs) {
				err = fmt.Errorf("completed %d of %d jobs", len(res.Jobs), len(specs))
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("share %v: %v", share, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("share %v: run did not finish", share)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	specs := []job.Spec{uniformJob(1, 0, 1, 1)}
	tests := []struct {
		name   string
		mutate func(*engine.Config)
	}{
		{name: "zero containers", mutate: func(c *engine.Config) { c.Containers = 0 }},
		{name: "negative admission", mutate: func(c *engine.Config) { c.MaxRunningJobs = -1 }},
		{name: "failure prob 1", mutate: func(c *engine.Config) { c.FailureProb = 1 }},
		{name: "negative failure prob", mutate: func(c *engine.Config) { c.FailureProb = -0.1 }},
		{name: "straggler prob above 1", mutate: func(c *engine.Config) { c.StragglerProb = 1.5 }},
		{name: "straggler factor 1", mutate: func(c *engine.Config) { c.StragglerProb = 0.5; c.StragglerFactor = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig(4)
			tt.mutate(&cfg)
			if _, err := engine.Run(specs, sched.NewFIFO(), cfg); err == nil {
				t.Error("expected config validation error")
			}
		})
	}
	if _, err := engine.Run(specs, nil, smallConfig(4)); err == nil {
		t.Error("expected error for nil scheduler")
	}
	bad := uniformJob(1, 0, 1, 1)
	bad.Stages[0].Tasks[0].Duration = -1
	if _, err := engine.Run([]job.Spec{bad}, sched.NewFIFO(), smallConfig(4)); err == nil {
		t.Error("expected error for invalid spec")
	}
}

// TestNonFiniteConfigRejected: a NaN or infinite probability, straggler
// factor or sample interval is an error naming the field from every entry
// point — NaN fails both halves of a range check written with < and >.
func TestNonFiniteConfigRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	specs := []job.Spec{uniformJob(1, 0, 1, 1)}
	tests := []struct {
		name   string
		mutate func(*engine.Config)
		want   string
	}{
		{"NaN failure prob", func(c *engine.Config) { c.FailureProb = nan }, "failure probability"},
		{"+Inf failure prob", func(c *engine.Config) { c.FailureProb = inf }, "failure probability"},
		{"NaN straggler prob", func(c *engine.Config) { c.StragglerProb = nan }, "straggler probability"},
		{"+Inf straggler prob", func(c *engine.Config) { c.StragglerProb = inf }, "straggler probability"},
		{"NaN straggler factor", func(c *engine.Config) { c.StragglerFactor = nan }, "straggler factor"},
		{"+Inf straggler factor", func(c *engine.Config) { c.StragglerFactor = inf }, "straggler factor"},
		{"NaN sample interval", func(c *engine.Config) { c.SampleInterval = nan }, "sample interval"},
		{"+Inf sample interval", func(c *engine.Config) { c.SampleInterval = inf }, "sample interval"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig(4)
			tt.mutate(&cfg)
			_, runErr := engine.Run(specs, sched.NewFIFO(), cfg)
			_, streamErr := engine.RunStream(engine.SliceSource(specs), sched.NewFIFO(), cfg, nil)
			_, shardErr := engine.RunSharded(
				func(int) (engine.Source, error) { return engine.SliceSource(specs), nil },
				func() (sched.Scheduler, error) { return sched.NewFIFO(), nil },
				engine.ShardedConfig{Config: cfg, Shards: 1})
			for entry, err := range map[string]error{"Run": runErr, "RunStream": streamErr, "RunSharded": shardErr} {
				if err == nil || !strings.Contains(err.Error(), tt.want) {
					t.Errorf("%s error = %v, want one naming %q", entry, err, tt.want)
				}
			}
		})
	}
}

// TestNonFiniteSpecRejected: a NaN or infinite arrival, task duration or size
// hint in one of three jobs is an error naming the field through Run and
// RunStream alike, never a NaN or infinite mean response.
func TestNonFiniteSpecRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name   string
		mutate func(*job.Spec)
		want   string
	}{
		{"NaN arrival", func(s *job.Spec) { s.Arrival = nan }, "non-finite arrival"},
		{"+Inf arrival", func(s *job.Spec) { s.Arrival = inf }, "non-finite arrival"},
		{"NaN duration", func(s *job.Spec) { s.Stages[0].Tasks[0].Duration = nan }, "non-finite duration"},
		{"+Inf duration", func(s *job.Spec) { s.Stages[0].Tasks[0].Duration = inf }, "non-finite duration"},
		{"NaN size hint", func(s *job.Spec) { s.SizeHint = nan }, "non-finite size hint"},
		{"+Inf size hint", func(s *job.Spec) { s.SizeHint = inf }, "non-finite size hint"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			specs := []job.Spec{uniformJob(1, 0, 2, 2), uniformJob(2, 1, 2, 2), uniformJob(3, 2, 2, 2)}
			tt.mutate(&specs[2])
			_, runErr := engine.Run(specs, sched.NewFIFO(), smallConfig(4))
			_, streamErr := engine.RunStream(engine.SliceSource(specs), sched.NewFIFO(), smallConfig(4), nil)
			for entry, err := range map[string]error{"Run": runErr, "RunStream": streamErr} {
				if err == nil || !strings.Contains(err.Error(), tt.want) {
					t.Errorf("%s error = %v, want one naming %q", entry, err, tt.want)
				}
			}
		})
	}
}

func TestAllSchedulersCompleteMixedWorkload(t *testing.T) {
	mkSpecs := func() []job.Spec {
		return []job.Spec{
			mapReduceJob(1, 0, 12, 8, 4, 6),
			uniformJob(2, 2, 30, 3),
			mapReduceJob(3, 10, 5, 20, 2, 10),
			uniformJob(4, 11, 1, 1),
		}
	}
	cfg := smallConfig(10)
	cfg.MaxRunningJobs = 2

	policies := []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewFIFO() },
		func() sched.Scheduler { return sched.NewFair() },
		func() sched.Scheduler { return sched.NewLAS() },
		func() sched.Scheduler { return sched.NewSJF() },
		func() sched.Scheduler { return sched.NewSRTF() },
		func() sched.Scheduler {
			s, err := core.New(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for _, mk := range policies {
		policy := mk()
		res, err := engine.Run(mkSpecs(), policy, cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if len(res.Jobs) != 4 {
			t.Fatalf("%s: %d results, want 4", policy.Name(), len(res.Jobs))
		}
		for _, jr := range res.Jobs {
			if jr.ResponseTime <= 0 {
				t.Errorf("%s: job %d response time %v", policy.Name(), jr.ID, jr.ResponseTime)
			}
			if jr.Completed < jr.Arrival {
				t.Errorf("%s: job %d completed before arrival", policy.Name(), jr.ID)
			}
		}
	}
}

func TestLASMQStageAwareDemotesFasterThanBlind(t *testing.T) {
	// With stage awareness the long job should be identified (and demoted)
	// quickly, so a later small job finishes sooner.
	long := uniformJob(1, 0, 50, 50)
	smallJobs := []job.Spec{
		uniformJob(2, 10, 4, 2),
		uniformJob(3, 20, 4, 2),
	}
	cfg := smallConfig(8)

	run := func(stageAware bool) float64 {
		c := core.DefaultConfig()
		c.StageAware = stageAware
		mq, err := core.New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(append([]job.Spec{long}, smallJobs...), mq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Jobs[1].ResponseTime + res.Jobs[2].ResponseTime
	}
	aware := run(true)
	blind := run(false)
	if aware > blind {
		t.Errorf("stage-aware small-job response %v worse than blind %v", aware, blind)
	}
}

func TestMeanResponseTime(t *testing.T) {
	res := &engine.Result{}
	res.Record(1, 10)
	res.Record(1, 30)
	if got := res.MeanResponseTime(); got != 20 {
		t.Errorf("mean = %v, want 20", got)
	}
	empty := &engine.Result{}
	if got := empty.MeanResponseTime(); got != 0 {
		t.Errorf("mean of empty = %v, want 0", got)
	}
	if got := res.ResponseTimes(); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("ResponseTimes = %v", got)
	}
}

func TestFailuresAndSpeculationTogether(t *testing.T) {
	cfg := smallConfig(12)
	cfg.FailureProb = 0.15
	cfg.StragglerProb = 0.2
	cfg.StragglerFactor = 5
	cfg.Speculation = true
	cfg.Seed = 21
	specs := []job.Spec{
		mapReduceJob(1, 0, 10, 8, 3, 6),
		uniformJob(2, 4, 8, 5),
	}
	res, err := engine.Run(specs, sched.NewFair(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.ResponseTime <= 0 {
			t.Errorf("job %d response %v", jr.ID, jr.ResponseTime)
		}
	}
	totalSpec := res.Jobs[0].Speculative + res.Jobs[1].Speculative
	totalFail := res.Jobs[0].Failures + res.Jobs[1].Failures
	if totalFail == 0 {
		t.Error("expected failures")
	}
	if totalSpec == 0 {
		t.Error("expected speculative attempts with free containers")
	}
}
