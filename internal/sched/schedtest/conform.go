package schedtest

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/dist"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// Substrate is a deterministic substrate as Conform drives it. It keeps what
// each (input, policy) pair's runs showed, so that Conform and Check run a
// pair once however many tests read it: share one *Substrate between them.
type Substrate struct {
	Inputs []string // the inputs Run takes by index
	// Run runs input i under p, with probe attached unless it is nil, and
	// returns what the run reports, for reflect.DeepEqual. check is nil but
	// on the dense and the MapOnly run, which drive Watch(p, check); a
	// substrate may add checks of its own there, failing the run. Runs may
	// overlap.
	Run func(i int, p sched.Scheduler, probe obs.Probe, check Check) (any, error)
	// Unprobed marks a substrate that takes no probe: Conform skips the
	// checks that read the probe stream.
	Unprobed bool
	// LASMQ are LAS_MQ's configurations at the substrate's scale. Each runs
	// under stage awareness × demand order; the first also configures the
	// adaptive wrapper's initial ladder and the blends' LAS_MQ.
	LASMQ   []core.Config
	Gittins dist.Service // the service model Gittins schedules from

	mu    sync.Mutex
	cells map[string]*cell // by input and policy name
}

// cell is what a Substrate keeps of one pair's runs: the error of a run that
// failed, else the checks that failed, and the demotions DemoteOnly counted.
type cell struct {
	once      sync.Once
	err       error
	failed    []error
	demotions int
}

// entry is one policy of Conform's table; mq configures LAS_MQ itself.
type entry struct {
	name string
	new  func() (sched.Scheduler, error)
	mq   *core.Config
}

// policies is Conform's policy table: the baselines core.NewPolicy builds,
// Gittins, each LAS_MQ configuration under stage awareness × demand order,
// the adaptive wrapper and two blends of LAS_MQ with FAIR.
func (s *Substrate) policies() []entry {
	var out []entry
	for _, name := range core.PolicyNames()[1:] { // all but LAS_MQ, which comes first
		p, _ := core.NewPolicy(name, core.Config{})
		out = append(out, entry{name: p.Name(), new: func() (sched.Scheduler, error) { return core.NewPolicy(name, core.Config{}) }})
	}
	out = append(out, entry{name: "Gittins", new: func() (sched.Scheduler, error) { return sched.NewGittins(s.Gittins), nil }})
	for _, mq := range s.LASMQ {
		for _, stageAware := range []bool{false, true} {
			for _, byDemand := range []bool{false, true} {
				c := mq
				c.StageAware, c.OrderByDemand = stageAware, byDemand
				out = append(out, entry{fmt.Sprintf("LAS_MQ/first=%v/stageAware=%v/byDemand=%v", c.FirstThreshold, stageAware, byDemand),
					func() (sched.Scheduler, error) { return core.New(c) }, &c})
			}
		}
	}
	mq := s.LASMQ[0]
	out = append(out, entry{name: "Adaptive", new: func() (sched.Scheduler, error) {
		c := core.DefaultAdaptiveConfig()
		c.Queues, c.QueueWeightDecay, c.StageAware, c.OrderByDemand = mq.Queues, mq.QueueWeightDecay, mq.StageAware, mq.OrderByDemand
		c.InitialThreshold, c.InitialStep, c.WarmupJobs, c.RefitEvery = mq.FirstThreshold, mq.Step, 4, 4
		return core.NewAdaptive(c)
	}})
	for _, theta := range []float64{0.4, 0.5} {
		out = append(out, entry{name: fmt.Sprintf("Blend-%v", theta), new: func() (sched.Scheduler, error) {
			p, err := core.New(mq)
			if err != nil {
				return nil, err
			}
			return sched.NewBlend(p, sched.NewFair(), theta)
		}})
	}
	return out
}

// pair is one (input, policy) pair's runs, as the checks read them.
type pair struct {
	*entry
	rounds, served        int              // the dense run's answers and the views they served
	broken                map[string]error // by check, the first answer it failed
	watched, mapped, bare any              // the results of the dense, the MapOnly and the bare run
	literal               any              // LiteralLASMQ's, for LAS_MQ
	stream                stream
	log, mapLog           hash.Hash64 // the JSONL streams of the dense and the MapOnly run
	demote                *DemoteOnly // for LAS_MQ
}

// checks is Conform's table of oracles, each holding every answer of the
// dense and the MapOnly run (answer) or the pair's runs (runs). A row that
// reads the probe stream (probe) does not apply on an unprobed substrate,
// nor a row about LAS_MQ (lasmq) to any other policy.
var checks = []struct {
	name         string
	probe, lasmq bool
	answer       func(p *pair, capacity float64, jobs []sched.JobView, shares *sched.Shares) error
	runs         func(p *pair) error
}{
	{name: "AnswerError", answer: func(_ *pair, _ float64, jobs []sched.JobView, shares *sched.Shares) error {
		return AnswerError(len(jobs), shares)
	}},
	{name: "FIFOError", answer: func(p *pair, capacity float64, jobs []sched.JobView, shares *sched.Shares) error {
		if p.name != "FIFO" {
			return nil
		}
		return FIFOError(capacity, jobs, shares)
	}},
	{name: "grants within demand and capacity", answer: grantError},
	{name: "answers", runs: func(p *pair) error {
		if p.rounds == 0 || p.served == 0 {
			return fmt.Errorf("%d answers serving %d views", p.rounds, p.served)
		}
		return nil
	}},
	{name: "MapOnly with one sink", runs: func(p *pair) error { return differ(p.watched, p.mapped) }},
	{name: "MapOnly's probe stream", probe: true, runs: func(p *pair) error {
		if p.log.Sum64() != p.mapLog.Sum64() {
			return errors.New("the JSONL streams differ")
		}
		return nil
	}},
	{name: "unprobed and unwatched", runs: func(p *pair) error { return differ(p.watched, p.bare) }},
	{name: "every job completes once", probe: true, runs: func(p *pair) error { return p.stream.jobsErr() }},
	{name: "LiteralLASMQ with no probe", lasmq: true, runs: func(p *pair) error { return differ(p.watched, p.literal) }},
	{name: "DemoteOnly", probe: true, lasmq: true, runs: func(p *pair) error {
		if p.demote.Events() == 0 {
			return errors.New("no queue event")
		}
		return p.demote.Err()
	}},
}

// Conform holds every policy of its table on every input of s to every
// oracle of its table, each pair in a parallel subtest. A pair runs through
// the policy's dense forms, watched and with every obs sink fanned in; behind
// MapOnly, watched, with a JSONL sink alone; bare, neither watched nor probed;
// and, for LAS_MQ, as LiteralLASMQ with no probe. Every check is taken from
// those runs:
//
//   - every answer keeps the sparse contract (AnswerError), grants each view
//     at most its ready demand and all of them at most the capacity, to 1e-9
//     relative, and for FIFO is LiteralFIFO's (FIFOError);
//   - the runs report equal results, and the first two byte-identical JSONL
//     streams (compared by FNV-1a sum): the dense forms equal the map forms,
//     and neither watching nor any sink attached changes the run;
//   - the probe stream completes every submitted job exactly once;
//   - LAS_MQ equals LiteralLASMQ, and its queue events keep the demote-only
//     rule (DemoteOnly), which must see one; over all inputs it must demote.
func Conform(t *testing.T, s *Substrate) {
	var demotions atomic.Int64
	t.Cleanup(func() {
		if !s.Unprobed && demotions.Load() == 0 {
			t.Error("LAS_MQ demoted no job on any input")
		}
	})
	for _, input := range s.Inputs {
		for _, e := range s.policies() {
			t.Run(input+"/"+e.name, func(t *testing.T) {
				t.Parallel()
				demotions.Add(int64(s.Check(t, input, e.name)))
			})
		}
	}
}

// Check fails t on every check of Conform's table that input fails under the
// named policy of the table; the pair runs unless it has run for s already.
// It returns the demotions DemoteOnly counted on the pair (0 for any policy
// but LAS_MQ).
func (s *Substrate) Check(t *testing.T, input, policy string) int {
	t.Helper()
	i := slices.Index(s.Inputs, input)
	ps := s.policies()
	k := slices.IndexFunc(ps, func(e entry) bool { return e.name == policy })
	if i < 0 || k < 0 {
		t.Fatalf("Conform has no pair %s/%s", input, policy)
	}
	c := s.cell(i, &ps[k])
	if c.err != nil {
		t.Fatal(c.err)
	}
	for _, err := range c.failed {
		t.Error(err)
	}
	return c.demotions
}

// cell runs input i under e's policy, once for s, and keeps the checks the
// runs fail.
func (s *Substrate) cell(i int, e *entry) *cell {
	s.mu.Lock()
	if s.cells == nil {
		s.cells = map[string]*cell{}
	}
	c := s.cells[s.Inputs[i]+"/"+e.name]
	if c == nil {
		c = &cell{}
		s.cells[s.Inputs[i]+"/"+e.name] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		p, err := s.runPair(i, e)
		if err != nil {
			c.err = err
			return
		}
		for _, ch := range checks {
			err := p.broken[ch.name]
			switch {
			case ch.probe && s.Unprobed || ch.lasmq && e.mq == nil:
				continue
			case ch.runs != nil:
				err = ch.runs(p)
			}
			if err != nil {
				c.failed = append(c.failed, fmt.Errorf("%s: %v", ch.name, err))
			}
		}
		if p.demote != nil {
			c.demotions = p.demote.Demotions()
		}
	})
	return c
}

// runPair runs input i under e's policy: as LiteralLASMQ for LAS_MQ, watched
// with every sink, watched behind MapOnly, and bare.
func (s *Substrate) runPair(i int, e *entry) (*pair, error) {
	p := &pair{entry: e, broken: map[string]error{}, stream: newStream(), log: fnv.New64a(), mapLog: fnv.New64a()}
	run := func(policy sched.Scheduler, probe obs.Sink, check Check) (any, error) {
		var attached obs.Probe
		if probe != nil && !s.Unprobed {
			attached = probe
		}
		return s.Run(i, policy, attached, check)
	}
	// watch checks every answer of a run; the answers it counts are the
	// dense run's.
	watch := func(run string, count bool) Check {
		answers := 0
		return func(capacity float64, jobs []sched.JobView, shares *sched.Shares) {
			answers++
			if count {
				p.rounds++
				p.served += len(shares.Served())
			}
			for _, c := range checks {
				if c.answer != nil && p.broken[c.name] == nil {
					if err := c.answer(p, capacity, jobs, shares); err != nil {
						p.broken[c.name] = fmt.Errorf("%s answer %d: %v", run, answers, err)
					}
				}
			}
		}
	}
	log, mapLog := obs.NewJSONL(p.log), obs.NewJSONL(p.mapLog)
	sinks := []obs.Sink{&p.stream, log, obs.NewCounters(), obs.NewChromeTrace(), obs.NewRing(1 << 8),
		obs.NewHistograms(), obs.NewSeries(50)}
	if c := e.mq; c != nil {
		literal, err := run(&LiteralLASMQ{Queues: c.Queues, FirstThreshold: c.FirstThreshold, Step: c.Step,
			Decay: c.QueueWeightDecay, StageAware: c.StageAware, OrderByDemand: c.OrderByDemand}, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("LiteralLASMQ: %v", err)
		}
		p.literal = literal
		p.demote = &DemoteOnly{Queues: c.Queues, FirstThreshold: c.FirstThreshold, Step: c.Step}
		sinks = append(sinks, p.demote)
	}
	dense, err := e.new()
	if err != nil {
		return nil, err
	}
	if p.watched, err = run(dense, obs.Multi(sinks...), watch("dense", true)); err != nil {
		return nil, err
	}
	mapped, err := e.new()
	if err != nil {
		return nil, err
	}
	if p.mapped, err = run(MapOnly(mapped), mapLog, watch("MapOnly", false)); err != nil {
		return nil, fmt.Errorf("MapOnly: %v", err)
	}
	bare, err := e.new()
	if err != nil {
		return nil, err
	}
	if p.bare, err = run(bare, nil, nil); err != nil {
		return nil, fmt.Errorf("bare: %v", err)
	}
	return p, errors.Join(log.Flush(), mapLog.Flush())
}

// differ reports whether two runs' results differ.
func differ(got, want any) error {
	if !reflect.DeepEqual(got, want) {
		return errors.New("the results differ")
	}
	return nil
}

// grantError reports a negative share, or an answer that grants a view more
// than its ready demand or all views more than the capacity, to 1e-9
// relative.
func grantError(_ *pair, capacity float64, jobs []sched.JobView, shares *sched.Shares) error {
	col, total := shares.Col(), 0.0
	for _, i := range shares.Served() {
		if x, d := col[i], jobs[i].ReadyDemand(); !(x >= 0 && x <= d*(1+1e-9)) {
			return fmt.Errorf("view %d (job %d) gets %v of its ready demand %v", i, jobs[i].ID(), x, d)
		}
		total += col[i]
	}
	if total > capacity*(1+1e-9) {
		return fmt.Errorf("the shares sum to %v of capacity %v", total, capacity)
	}
	return nil
}

// stream is the suite's own obs.Sink: it counts each job's submissions and
// completions. It records only as one of an obs.Multi.
type stream struct {
	obs.Nop
	submitted, done map[int32]int
}

func newStream() stream { return stream{submitted: map[int32]int{}, done: map[int32]int{}} }

// Record implements obs.Sink.
func (s *stream) Record(ev obs.Event) {
	switch ev.Kind {
	case obs.KindJobSubmitted:
		s.submitted[ev.A]++
	case obs.KindJobDone:
		s.done[ev.A]++
	}
}

// jobsErr reports a job submitted or completed other than exactly once.
func (s *stream) jobsErr() error {
	for job, n := range s.submitted {
		if n != 1 || s.done[job] != 1 {
			return fmt.Errorf("job %d submitted %d times, completed %d times", job, n, s.done[job])
		}
	}
	if len(s.submitted) == 0 || len(s.done) != len(s.submitted) {
		return fmt.Errorf("%d jobs completed, %d submitted", len(s.done), len(s.submitted))
	}
	return nil
}
