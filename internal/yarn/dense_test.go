package yarn

import (
	"math"
	"strings"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/sched"
)

// countingLASMQ is LAS_MQ with both forms of the round contract forwarded
// and counted, plus the largest round it was shown. The RM goroutine is the
// only caller; the counters are read after Shutdown, when it has exited.
type countingLASMQ struct {
	*core.LASMQ
	assign, assignInto, observe int
	assignDense, observeDense   int
	maxViews                    int
}

func newCountingLASMQ(t *testing.T) *countingLASMQ {
	t.Helper()
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &countingLASMQ{LASMQ: mq}
}

func (p *countingLASMQ) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	p.assign++
	return p.LASMQ.Assign(now, capacity, jobs)
}

func (p *countingLASMQ) AssignInto(now, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	p.assignInto++
	p.LASMQ.AssignInto(now, capacity, jobs, out)
}

func (p *countingLASMQ) Observe(now float64, jobs []sched.JobView) {
	p.observe++
	p.LASMQ.Observe(now, jobs)
}

func (p *countingLASMQ) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares *sched.Shares) {
	p.assignDense++
	p.maxViews = max(p.maxViews, len(jobs))
	p.LASMQ.AssignDense(now, capacity, jobs, slots, changed, freed, shares)
}

func (p *countingLASMQ) ObserveDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	p.observeDense++
	p.maxViews = max(p.maxViews, len(jobs))
	p.LASMQ.ObserveDense(now, jobs, slots, changed, freed)
}

// TestLASMQDrivenDenseLive: the live RM speaks the dense round contract, so a
// policy that has both forms sees full rounds as AssignDense and skipped
// rounds (both tasks running, nothing ready, heartbeats firing) as
// ObserveDense, and its map forms are never called.
func TestLASMQDrivenDenseLive(t *testing.T) {
	p := newCountingLASMQ(t)
	c, err := New(fastConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for id, dur := range []float64{40, 60} {
		if err := c.Submit(uniformJob(id+1, 1, dur)); err != nil {
			t.Fatal(err)
		}
	}
	reports := drain(t, c)
	c.Shutdown()
	if len(reports) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(reports))
	}
	if p.assignDense == 0 || p.observeDense == 0 {
		t.Errorf("dense forms: AssignDense %d, ObserveDense %d calls; want both > 0", p.assignDense, p.observeDense)
	}
	if p.assign+p.assignInto+p.observe != 0 {
		t.Errorf("map forms called: Assign %d, AssignInto %d, Observe %d; want none", p.assign, p.assignInto, p.observe)
	}
}

// TestRunningListBounded: the list every round walks holds the admitted,
// unfinished applications and nothing else. Twenty jobs submitted one after
// the other, each drained before the next, never show the policy more than
// one view, and leave the RM's list and table empty.
func TestRunningListBounded(t *testing.T) {
	p := newCountingLASMQ(t)
	c, err := New(fastConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	const jobs = 20
	for id := 1; id <= jobs; id++ {
		if err := c.Submit(uniformJob(id, 2, 3)); err != nil {
			t.Fatal(err)
		}
		if got := len(drain(t, c)); got != id {
			t.Fatalf("after job %d: %d reports", id, got)
		}
	}
	c.Shutdown()
	if p.maxViews != 1 {
		t.Errorf("a round walked %d applications with one job live at a time", p.maxViews)
	}
	if n, m := len(c.rm.running), len(c.rm.apps); n != 0 || m != 0 {
		t.Errorf("after the drain: %d running, %d in the table; want 0, 0", n, m)
	}
}

// TestNonFiniteRejected: FailureProb's range check was written
// `< 0 || >= 1`, which NaN passes — and a NaN probability never fails a task,
// silently.
func TestNonFiniteRejected(t *testing.T) {
	for _, tt := range []struct {
		name string
		p    float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cfg := fastConfig()
			cfg.FailureProb = tt.p
			_, err := New(cfg, sched.NewFIFO())
			if err == nil || !strings.Contains(err.Error(), "failure probability") {
				t.Errorf("New with FailureProb %v: error = %v, want one naming the failure probability", tt.p, err)
			}
		})
	}
}
