package fluid_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/dist"
	"lasmq/internal/fluid"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/sched/schedtest"
	"lasmq/internal/trace"
)

// pinnedPolicies are the policies whose runs TestProbeStreamPinned holds:
// every name core.PolicyNames lists, under its reporting name and with LAS_MQ
// in the trace-simulation configuration of diffPolicies, then Gittins, the adaptive wrapper and a
// blend.
func pinnedPolicies(t *testing.T) []namedPolicy {
	mqCfg := core.DefaultConfig()
	mqCfg.FirstThreshold = 1
	mqCfg.StageAware = false
	mqCfg.OrderByDemand = false
	mq := func() *core.LASMQ {
		s, err := core.New(mqCfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	model := pinnedGittinsModel(t)
	var out []namedPolicy
	for _, name := range core.PolicyNames() {
		newPolicy := func() (sched.Scheduler, error) { return core.NewPolicy(name, mqCfg) }
		p, err := newPolicy()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedPolicy{p.Name(), newPolicy})
	}
	return append(out,
		namedPolicy{"Gittins", func() (sched.Scheduler, error) { return sched.NewGittins(model), nil }},
		namedPolicy{"Adaptive", func() (sched.Scheduler, error) {
			cfg := core.DefaultAdaptiveConfig()
			cfg.InitialThreshold = 1
			cfg.StageAware = false
			cfg.OrderByDemand = false
			cfg.WarmupJobs = 4
			cfg.RefitEvery = 4
			return core.NewAdaptive(cfg)
		}},
		namedPolicy{"Blend", func() (sched.Scheduler, error) { return sched.NewBlend(mq(), sched.NewFair(), 0.4) }},
	)
}

// pinnedGittinsModel is the service distribution the pinned Gittins runs
// schedule from: a mixture of a small and a large lognormal cluster.
func pinnedGittinsModel(t *testing.T) dist.Service {
	m, err := dist.NewMixture([]dist.Service{
		dist.LognormalService{Mu: 0, Sigma: 0.5},
		dist.LognormalService{Mu: 4, Sigma: 1},
	}, []float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pinnedTrace is one input of TestProbeStreamPinned: a trace and the
// configuration it runs under.
type pinnedTrace struct {
	name  string
	specs []fluid.JobSpec
	cfg   fluid.Config
}

// pinnedTraces are diffTrace's seed 1 as it stands and under an admission
// cap, the Fig. 7b batch at 300 jobs, and edgeTrace with and without a cap.
func pinnedTraces(t *testing.T) []pinnedTrace {
	specs, tcfg := diffTrace(t, 1)
	fb := fluid.DefaultConfig()
	fb.Capacity = tcfg.Capacity
	capped := fb
	capped.MaxRunningJobs = 8
	uniform, err := trace.Uniform(300, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	edge := fluid.Config{Capacity: 10, TaskDuration: 1}
	edgeCapped := edge
	edgeCapped.MaxRunningJobs = 2
	return []pinnedTrace{
		{"facebook", specs, fb},
		{"facebook-capped", specs, capped},
		{"uniform", uniform, fluid.Config{Capacity: 1, TaskDuration: 1}},
		{"edge", edgeTrace(), edge},
		{"edge-capped", edgeTrace(), edgeCapped},
	}
}

// edgeTrace queues a job of size 1e-10 behind two long jobs that each fill
// the 10-container cluster: the small job is finished the moment it is
// admitted, yet FIFO gives it no share while a long job is running. It
// completes at the end of the first round after its admission — at t = 2
// without an admission cap, and at t = 12 under a cap of 2, where it waits
// for job 1 to leave.
func edgeTrace() []fluid.JobSpec {
	return []fluid.JobSpec{
		{ID: 1, Arrival: 0, Size: 20, Width: 10, Priority: 1},
		{ID: 2, Arrival: 0, Size: 100, Width: 10, Priority: 1},
		{ID: 3, Arrival: 1, Size: 1e-10, Width: 1, Priority: 1},
	}
}

// namedPolicy is one row of an ordered policy table.
type namedPolicy struct {
	name string
	new  func() (sched.Scheduler, error)
}

// TestProbeStreamPinned holds the fluid simulator's runs of each pinned
// policy on each pinned trace against testdata/probe_streams.txt (go test
// ./internal/fluid -run TestProbeStreamPinned -update-pinned rewrites it):
// per run, the length of the JSONL probe stream and one FNV-64a hash over
// the stream, every JobResult, Makespan, Utilization and Rounds.
// TestConform compares two forms of one binary's policies; this file is the
// other binary.
func TestProbeStreamPinned(t *testing.T) {
	var got bytes.Buffer
	for _, tr := range pinnedTraces(t) {
		for _, p := range pinnedPolicies(t) {
			policy, err := p.new()
			if err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			sink := obs.NewJSONL(&log)
			fcfg := tr.cfg
			fcfg.Probe = sink
			res, err := fluid.Run(tr.specs, policy, fcfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", tr.name, p.name, err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(log.Bytes())
			for _, jr := range res.Jobs {
				fmt.Fprintf(h, "%d %x %x %x %x %x %x\n", jr.ID, math.Float64bits(jr.Arrival),
					math.Float64bits(jr.Completed), math.Float64bits(jr.ResponseTime),
					math.Float64bits(jr.Size), math.Float64bits(jr.Width), math.Float64bits(jr.Slowdown))
			}
			fmt.Fprintf(h, "%x %x %d\n", math.Float64bits(res.Makespan), math.Float64bits(res.Utilization), res.Rounds)
			fmt.Fprintf(&got, "%s %s %d %016x\n", tr.name, p.name, log.Len(), h.Sum64())
		}
	}
	schedtest.Pinned(t, "testdata/probe_streams.txt", got.Bytes())
}

// queueLedger follows each job's queue level through LAS_MQ's queue events
// and records the first that breaks the ledger: a job enters only while it
// holds no level, moves only from the level it holds to another, and exits
// only from the level it holds. Unlike schedtest.DemoteOnly it allows a move
// upward, which an adaptive refit makes.
type queueLedger struct {
	obs.Nop
	level              map[int]int
	enters, downs, ups int
	err                error
}

func (l *queueLedger) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf(format, args...)
	}
}

func (l *queueLedger) QueueEnter(now float64, job, queue int) {
	if q, ok := l.level[job]; ok {
		l.fail("t=%v: job %d enters queue %d while in queue %d", now, job, queue, q)
	}
	l.level[job] = queue
	l.enters++
}

func (l *queueLedger) QueueDemote(now float64, job, from, to int, _ float64) {
	if q, ok := l.level[job]; !ok || q != from || to == from {
		l.fail("t=%v: job %d moves from queue %d to %d while in queue %d (held: %v)", now, job, from, to, q, ok)
	}
	if to > from {
		l.downs++
	} else {
		l.ups++
	}
	l.level[job] = to
}

func (l *queueLedger) QueueExit(now float64, job, queue int) {
	if q, ok := l.level[job]; !ok || q != queue {
		l.fail("t=%v: job %d exits queue %d while in queue %d (held: %v)", now, job, queue, q, ok)
	}
	delete(l.level, job)
}

// TestAdaptiveQueueLedger: over the pinned facebook trace, the adaptive
// wrapper's refits report every re-placement — a job the refit's sweep sees
// first enters, a job whose level changes moves from the level it held, up
// or down — so the ledger of its queue events balances, and no job holds a
// level once the run is over.
func TestAdaptiveQueueLedger(t *testing.T) {
	var adaptive namedPolicy
	for _, p := range pinnedPolicies(t) {
		if p.name == "Adaptive" {
			adaptive = p
		}
	}
	tr := pinnedTraces(t)[0]
	policy, err := adaptive.new()
	if err != nil {
		t.Fatal(err)
	}
	ledger := &queueLedger{level: map[int]int{}}
	cfg := tr.cfg
	cfg.Probe = ledger
	if _, err := fluid.Run(tr.specs, policy, cfg); err != nil {
		t.Fatal(err)
	}
	if ledger.err != nil {
		t.Fatal(ledger.err)
	}
	if len(ledger.level) != 0 {
		t.Fatalf("%d jobs still hold a queue level after the run: %v", len(ledger.level), ledger.level)
	}
	refits := policy.(*core.Adaptive).Refits()
	if refits == 0 || ledger.downs == 0 || ledger.ups == 0 {
		t.Fatalf("%s/%s: %d refits, %d enters, %d moves down, %d up; want a refit and moves both ways",
			tr.name, adaptive.name, refits, ledger.enters, ledger.downs, ledger.ups)
	}
	t.Logf("%d refits, %d enters, %d moves down, %d up", refits, ledger.enters, ledger.downs, ledger.ups)
}
