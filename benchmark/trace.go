package main

import (
	"fmt"
	"math/bits"
	"time"

	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
	"lasmq/internal/substrate"
)

// The traced pass times every call that crosses a layer boundary from files
// in this directory: the policy through a wrapping sched.Scheduler, the
// sources through wrapping streams, and the run itself around the simulator's
// entry point. A layer's self time is its span minus its children's.

// maxRawSpans bounds the raw spans kept per workload; aggregates keep
// everything.
const maxRawSpans = 10000

// span aggregates every call of one (policy, layer, op).
type span struct {
	Policy string `json:"policy"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	// Parent is the "layer.op" whose interval contains these calls.
	Parent  string    `json:"parent,omitempty"`
	Count   int64     `json:"count"`
	TotalNs int64     `json:"total_ns"`
	MaxNs   int64     `json:"max_ns"`
	Hist    [64]int64 `json:"log2_ns_hist"`

	rec *recorder
}

type rawSpan struct {
	Policy  string `json:"policy"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// recorder holds one traced pass's spans in memory; main writes them out at
// exit.
type recorder struct {
	epoch time.Time
	spans []*span
	raw   []rawSpan
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), raw: make([]rawSpan, 0, maxRawSpans)}
}

func (r *recorder) span(policy, layer, op, parent string) *span {
	s := &span{Policy: policy, Layer: layer, Op: op, Parent: parent, rec: r}
	r.spans = append(r.spans, s)
	return s
}

// done records one call that started at t0.
func (s *span) done(t0 time.Time) {
	d := int64(time.Since(t0))
	s.Count++
	s.TotalNs += d
	if d > s.MaxNs {
		s.MaxNs = d
	}
	s.Hist[bits.Len64(uint64(d))]++
	if r := s.rec; len(r.raw) < maxRawSpans {
		r.raw = append(r.raw, rawSpan{s.Policy, s.Layer + "." + s.Op, int64(t0.Sub(r.epoch)), d})
	}
}

func (s *span) seconds() float64 { return float64(s.TotalNs) / 1e9 }

// histQuantile returns the upper edge of the log2 bucket holding the q-quantile
// call, in ns.
func histQuantile(hist *[64]int64, q float64) float64 {
	total := int64(0)
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total-1))
	seen := int64(0)
	for b, c := range hist {
		seen += c
		if seen > rank {
			return float64(uint64(1) << b)
		}
	}
	return 0
}

// policySpans is the set of spans one traced policy run fills.
type policySpans struct {
	run, assign, observe, horizon *span
	flatNext, stagedNext          *span
	sourceSetupS                  float64
	views                         int64
}

// newPolicySpans lays out one policy run's span tree: run -> policy.*, and
// run -> workload.next -> trace.next when a stage source sits on the trace
// source, run -> trace.next when the simulator reads it directly.
func newPolicySpans(r *recorder, policy string, staged bool) *policySpans {
	flatParent := "run.policy"
	if staged {
		flatParent = "workload.next"
	}
	return &policySpans{
		run:        r.span(policy, "run", "policy", ""),
		assign:     r.span(policy, "policy", "assign", "run.policy"),
		observe:    r.span(policy, "policy", "observe", "run.policy"),
		horizon:    r.span(policy, "policy", "horizon", "run.policy"),
		stagedNext: r.span(policy, "workload", "next", "run.policy"),
		flatNext:   r.span(policy, "trace", "next", flatParent),
	}
}

// timedPolicy forwards every call to inner and times it. It is never used
// directly: wrapPolicy returns a value whose method set carries exactly the
// optional capabilities inner has, because substrate.Driver chooses its round
// logic by type assertion — a wrapper that hid ObserveHinter would change
// which rounds run, and one that added Observer would add calls.
type timedPolicy struct {
	inner sched.Scheduler
	ps    *policySpans
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	t0 := time.Now()
	out := p.inner.Assign(now, capacity, jobs)
	p.ps.assign.done(t0)
	p.ps.views += int64(len(jobs))
	return out
}

type timedBuffered struct{ *timedPolicy }

func (p timedBuffered) AssignInto(now, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	t0 := time.Now()
	p.inner.(sched.BufferedAssigner).AssignInto(now, capacity, jobs, out)
	p.ps.assign.done(t0)
	p.ps.views += int64(len(jobs))
}

type timedHinter struct{ *timedPolicy }

func (p timedHinter) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	t0 := time.Now()
	h := p.inner.(sched.Hinter).Horizon(now, jobs, alloc)
	p.ps.horizon.done(t0)
	return h
}

type timedObserver struct{ *timedPolicy }

func (p timedObserver) Observe(now float64, jobs []sched.JobView) {
	t0 := time.Now()
	p.inner.(sched.Observer).Observe(now, jobs)
	p.ps.observe.done(t0)
}

type timedObserveHinter struct{ timedObserver }

func (p timedObserveHinter) ObserveHorizon(now float64, jobs []sched.JobView, rates sched.Assignment) float64 {
	t0 := time.Now()
	h := p.inner.(sched.ObserveHinter).ObserveHorizon(now, jobs, rates)
	p.ps.observe.done(t0)
	return h
}

type probeForwarder struct{ *timedPolicy }

func (p probeForwarder) SetProbe(probe obs.Probe) { p.inner.(obs.ProbeSetter).SetProbe(probe) }

// Capability bits, in the order capabilities prints them.
const (
	capBuffered = 1 << iota
	capHinter
	capObserver
	capObserveHinter
	capProbeSetter
)

// capabilities reports which optional interfaces s implements.
func capabilities(s sched.Scheduler) int {
	c := 0
	if _, ok := s.(sched.BufferedAssigner); ok {
		c |= capBuffered
	}
	if _, ok := s.(sched.Hinter); ok {
		c |= capHinter
	}
	if _, ok := s.(sched.Observer); ok {
		c |= capObserver
	}
	if _, ok := s.(sched.ObserveHinter); ok {
		c |= capObserveHinter
	}
	if _, ok := s.(obs.ProbeSetter); ok {
		c |= capProbeSetter
	}
	return c
}

// wrapPolicy returns inner wrapped for timing, with exactly inner's
// capability set. Only the sets the benchmark's four policies have are
// spelled out; any other is an error rather than a silently different run.
func wrapPolicy(inner sched.Scheduler, ps *policySpans) (sched.Scheduler, error) {
	base := &timedPolicy{inner: inner, ps: ps}
	switch capabilities(inner) {
	case capBuffered: // FIFO, FAIR
		return struct {
			*timedPolicy
			timedBuffered
		}{base, timedBuffered{base}}, nil
	case capBuffered | capHinter: // LAS
		return struct {
			*timedPolicy
			timedBuffered
			timedHinter
		}{base, timedBuffered{base}, timedHinter{base}}, nil
	case capBuffered | capHinter | capObserver | capObserveHinter | capProbeSetter: // LAS_MQ
		return struct {
			*timedPolicy
			timedBuffered
			timedHinter
			timedObserveHinter
			probeForwarder
		}{base, timedBuffered{base}, timedHinter{base}, timedObserveHinter{timedObserver{base}}, probeForwarder{base}}, nil
	}
	return nil, fmt.Errorf("wrapPolicy: %s has capability set %05b, which no wrapper forwards exactly", inner.Name(), capabilities(inner))
}

// timedFlat times trace-layer Next calls.
type timedFlat struct {
	inner substrate.Source
	s     *span
}

func (t *timedFlat) Next() (substrate.JobSpec, bool, error) {
	t0 := time.Now()
	spec, ok, err := t.inner.Next()
	t.s.done(t0)
	return spec, ok, err
}

// timedStaged times workload-layer Next calls; the trace-layer calls they
// make are its children.
type timedStaged struct {
	inner engine.Source
	s     *span
}

func (t *timedStaged) Next() (job.Spec, bool, error) {
	t0 := time.Now()
	spec, ok, err := t.inner.Next()
	t.s.done(t0)
	return spec, ok, err
}

// countingProbe counts the events the simulators emit. Plain ints, no lock:
// a probe forces a sharded run serial, so one goroutine calls it.
type countingProbe struct {
	obs.Nop
	submitted, admitted, backlog, peakBacklog     int64
	taskStarts, taskDone, taskFails               int64
	specLaunches, specWins                        int64
	roundsExecuted, roundsSkipped, roundsObserved int64
	viewsSeen                                     int64
	demotions, migrations                         int64
	slabPeakLive, slabRecycled                    int64
}

func (c *countingProbe) JobSubmitted(float64, int) {
	c.submitted++
	c.backlog++
	if c.backlog > c.peakBacklog {
		c.peakBacklog = c.backlog
	}
}

func (c *countingProbe) JobAdmitted(float64, int, float64) { c.backlog-- }

func (c *countingProbe) TaskStart(_ float64, _, _, _, _ int, speculative bool) {
	c.taskStarts++
	if speculative {
		c.specLaunches++
	}
}

func (c *countingProbe) TaskDone(_ float64, _, _, _ int, _ float64, speculative bool) {
	c.taskDone++
	if speculative {
		c.specWins++
	}
}

func (c *countingProbe) TaskFail(float64, int, int, int, float64) { c.taskFails++ }

func (c *countingProbe) QueueDemote(float64, int, int, int, float64) { c.demotions++ }

func (c *countingProbe) RoundExecuted(float64, int) { c.roundsExecuted++ }

func (c *countingProbe) RoundSkipped(_ float64, observed bool) {
	c.roundsSkipped++
	if observed {
		c.roundsObserved++
	}
}

func (c *countingProbe) EventqMigrate(float64, int) { c.migrations++ }

// events is the engine's event count as the probe sees it: submits, task
// starts, task completions and task failures.
func (c *countingProbe) events() int64 {
	return c.submitted + c.taskStarts + c.taskDone + c.taskFails
}

// add folds one policy run's counts into a sweep's: counts sum, the backlog
// peak is the largest.
func (c *countingProbe) add(o *countingProbe) {
	c.submitted += o.submitted
	c.taskStarts += o.taskStarts
	c.taskDone += o.taskDone
	c.taskFails += o.taskFails
	c.specLaunches += o.specLaunches
	c.specWins += o.specWins
	c.roundsExecuted += o.roundsExecuted
	c.roundsSkipped += o.roundsSkipped
	c.roundsObserved += o.roundsObserved
	c.demotions += o.demotions
	c.migrations += o.migrations
	c.peakBacklog = max(c.peakBacklog, o.peakBacklog)
}
