package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"time"

	"lasmq/internal/engine"
	"lasmq/internal/sched"
	"lasmq/internal/stats"
	"lasmq/internal/substrate"
)

// subSeedStride separates the generator seeds of one run's sweeps: sweep i of
// a run with -seed s generates its inputs from s + i*subSeedStride, so sweep
// 0 is the seed itself (the one golden.json pins).
const subSeedStride = 1000003

func subSeed(seed int64, i int) int64 { return seed + int64(i)*subSeedStride }

// options is what the command line fixes for every workload of one
// invocation.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	outDir  string
	golden  goldenFile
}

// size is a workload's job count in this mode.
func (o options) size(w *benchWorkload) int {
	if o.quick {
		return max(20, w.jobs/20)
	}
	return w.jobs
}

func (o options) minSweeps() int {
	if o.quick {
		return 2
	}
	return 3
}

// setupEvery is how many timed sweeps separate two set-ups.
func (o options) setupEvery() int {
	if o.quick {
		return 1
	}
	return 3
}

// stat summarises the per-sweep values of one metric.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(values []float64, unit string) stat {
	if len(values) == 0 {
		return stat{Unit: unit}
	}
	return stat{Median: stats.Percentile(values, 0.5), Min: slices.Min(values), Max: slices.Max(values), N: len(values), Unit: unit}
}

func single(v float64, unit string) stat { return stat{Median: v, Min: v, Max: v, N: 1, Unit: unit} }

// report is the outcome of one workload in one mode.
type report struct {
	Workload     string          `json:"workload"`
	Mode         string          `json:"mode"` // "end_to_end" or "per_layer"
	Jobs         int             `json:"jobs_per_policy_run"`
	Sweeps       int             `json:"timed_sweeps"`
	WallS        float64         `json:"wall_s"`
	OpsAttempted int64           `json:"ops_attempted"`
	OpsFailed    int64           `json:"ops_failed"`
	Correct      bool            `json:"correct"`
	Golden       string          `json:"golden"` // "match", "mismatch" or "none for this seed and size"
	Errors       []string        `json:"errors,omitempty"`
	Metrics      map[string]stat `json:"metrics"`
	// Raw is what the end-to-end mode read before normalising: not part of
	// the result line, printed and written for whoever wants wall-clock.
	Raw map[string]stat `json:"raw,omitempty"`
}

// policyRun is one policy's run within a sweep.
type policyRun struct {
	wall float64
	d    digest
	err  error
}

// sweepResult is one four-policy sweep.
type sweepResult struct {
	jobs int
	// wall is the sweep's duration without the yardsticks; speed is the
	// box's speed during it as the yardsticks read it (1 when traced, where
	// none run).
	wall      float64
	speed     float64
	runs      []policyRun
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPauseNs uint64
	// traced sweeps only
	spans  []*policySpans
	probes []*countingProbe
	rec    *recorder
}

// sweep runs the four policies over inst, fresh policy each. With traced set
// every layer boundary is timed from outside; end-to-end numbers never come
// from such a sweep. An untraced sweep runs the yardstick before, between and
// after its policy runs.
func sweep(w *benchWorkload, inst *instance, traced bool, workers int) sweepResult {
	res := sweepResult{jobs: inst.jobs, runs: make([]policyRun, len(policyOrder))}
	if traced {
		res.rec = newRecorder()
	}
	// Two collections empty every sync.Pool (the engines keep their arenas in
	// one), so each sweep starts as a fresh process would: whether the arena
	// survived since the last sweep would otherwise hang on when the harness's
	// own allocations happened to trigger a collection, and bytes_per_job on
	// the materialised workloads would flip between two values ten-fold apart.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	yard := 0.0
	if !traced {
		yard = yardstickS()
	}
	for i, name := range policyOrder {
		newPol := w.newPolicy(name)
		h := hooks{workers: workers}
		var ps *policySpans
		if traced {
			ps = newPolicySpans(res.rec, name, w.staged)
			probe := &countingProbe{}
			res.spans = append(res.spans, ps)
			res.probes = append(res.probes, probe)
			bare := newPol
			newPol = func() (sched.Scheduler, error) {
				inner, err := bare()
				if err != nil {
					return nil, err
				}
				return wrapPolicy(inner, ps)
			}
			h = hooks{
				probe:       probe,
				flat:        func(s substrate.Source) substrate.Source { return &timedFlat{s, ps.flatNext} },
				staged:      func(s engine.Source) engine.Source { return &timedStaged{s, ps.stagedNext} },
				sourceSetup: func(sec float64) { ps.sourceSetupS += sec },
				fold:        true,
			}
		}
		t0 := time.Now()
		d, err := inst.run(newPol, h)
		if traced {
			ps.run.done(t0)
		}
		res.runs[i] = policyRun{wall: time.Since(t0).Seconds(), d: d, err: err}
		if !traced {
			yard += yardstickS()
		}
	}
	res.wall = time.Since(start).Seconds() - yard
	res.speed = 1
	if !traced {
		res.speed = yardstickNominalS * float64(len(policyOrder)+1) / yard
	}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.bytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = after.NumGC - before.NumGC
	res.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return res
}

// checker holds a workload's correctness state: what counts as an operation,
// which failed, and the digests later passes over the same inputs must
// reproduce bit for bit.
type checker struct {
	w         *benchWorkload
	golden    goldenFile
	seen      map[string][]digest
	attempted int64
	failed    int64
	goldenHit bool
	goldenBad bool
	errs      []string
}

func newChecker(w *benchWorkload, golden goldenFile) *checker {
	return &checker{w: w, golden: golden, seen: make(map[string][]digest)}
}

func (c *checker) failf(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check verifies one sweep over the inputs generated from genSeed. An
// operation is one job in one policy run; all of a run's jobs fail together.
func (c *checker) check(inst *instance, genSeed int64, pass string, s sweepResult) {
	key := goldenKey(c.w.name, inst.jobs, genSeed)
	ref := c.seen[key]
	pinned, hasGolden := c.golden[key]
	digests := make([]digest, len(s.runs))
	for i, r := range s.runs {
		policy := policyOrder[i]
		digests[i] = r.d
		c.attempted += int64(inst.jobs)
		bad := func(format string, args ...any) {
			c.failf("%s seed %d %s %s: %s", c.w.name, genSeed, pass, policy, fmt.Sprintf(format, args...))
		}
		ok := true
		switch {
		case r.err != nil:
			bad("%v", r.err)
			ok = false
		case r.d.Jobs != inst.jobs:
			bad("completed %d of %d jobs", r.d.Jobs, inst.jobs)
			ok = false
		case inst.totalSize > 0 && math.Abs(r.d.service-inst.totalSize) > 1e-9*inst.totalSize:
			bad("delivered service %v, submitted %v", r.d.service, inst.totalSize)
			ok = false
		}
		if ok && ref != nil && !r.d.sameOutcome(ref[i]) {
			bad("differs from an earlier pass over the same inputs: %+v vs %+v", r.d, ref[i])
			ok = false
		}
		if ok && hasGolden {
			c.goldenHit = true
			g := pinned[policy]
			if !r.d.sameOutcome(g) || (r.d.Order != 0 && g.Order != 0 && r.d.Order != g.Order) {
				bad("differs from golden.json: %+v vs %+v", r.d, g)
				c.goldenBad = true
				ok = false
			}
		}
		if !ok {
			c.failed += int64(inst.jobs)
		}
	}
	if ref == nil {
		c.seen[key] = digests
	}
}

func (c *checker) goldenStatus() string {
	switch {
	case c.goldenBad:
		return "mismatch"
	case c.goldenHit:
		return "match"
	}
	return "none for this seed and size"
}

func (c *checker) fill(r *report) {
	r.OpsAttempted = c.attempted
	r.OpsFailed = c.failed
	r.Correct = c.failed == 0 && len(c.errs) == 0
	r.Golden = c.goldenStatus()
	r.Errors = c.errs
}

// setUp generates the inputs for the run's own seed and runs a warm-up sweep
// at a quarter of the size, which lets the heap grow and the pools fill
// before anything is timed. It is everything a run pays before its first
// timed sweep; its duration, at the speed its warm-up sweep read off the
// yardstick, is setup_s. Repetition rep warms up on the inputs of sub-seed
// rep, so that the median over repetitions does not hang on where one seed's
// giant jobs fall.
func setUp(w *benchWorkload, o options, c *checker, rep int) (*instance, float64, error) {
	t0 := time.Now()
	inst, err := w.prepare(o.seed, o.size(w))
	if err != nil {
		return nil, 0, err
	}
	warm, err := w.prepare(subSeed(o.seed, rep), max(10, o.size(w)/4))
	if err != nil {
		return nil, 0, err
	}
	s := sweep(w, warm, false, 0)
	elapsed := time.Since(t0).Seconds()
	c.check(warm, subSeed(o.seed, rep), "warm-up", s)
	return inst, elapsed * s.speed, nil
}

// peakHeapMB runs f with the collector held close to the live heap
// (GC percent 10) and samples the bytes in heap objects every 5 ms: the
// maximum is the peak live heap, over-read by at most a tenth.
func peakHeapMB(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var high uint64
		for {
			metrics.Read(sample)
			high = max(high, sample[0].Value.Uint64())
			select {
			case <-stop:
				peak <- high
				return
			case <-tick.C:
			}
		}
	}()
	f()
	close(stop)
	return float64(<-peak) / 1e6
}

// runEndToEnd measures what a user of the sweep feels, tracing off: set-up,
// then timed sweeps for o.seconds — each over freshly generated inputs from
// its own sub-seed, so that the run's medians are taken over many inputs and
// vary little from one -seed to the next. Set-up is repeated after every few
// sweeps, so that its median too is taken across the whole run and not
// within the one stretch of machine weather the first second falls in.
// Times are read at yardstick speed: norm_jobs_per_s is a sweep's jobs per
// second divided by the box's speed during that sweep.
func runEndToEnd(w *benchWorkload, o options) (*report, error) {
	begin := time.Now()
	c := newChecker(w, o.golden)
	inst, sec, err := setUp(w, o, c, 0)
	if err != nil {
		return nil, err
	}
	setups := []float64{sec}

	var normJobsPerS, jobsPerS, speeds, allocs, bytes []float64
	start := time.Now()
	for i := 0; i < o.minSweeps() || time.Since(start).Seconds() < o.seconds; i++ {
		in := inst
		if i > 0 {
			if in, err = w.prepare(subSeed(o.seed, i), o.size(w)); err != nil {
				return nil, err
			}
		}
		s := sweep(w, in, false, 0)
		c.check(in, subSeed(o.seed, i), fmt.Sprintf("sweep %d", i), s)
		ops := float64(in.jobs * len(policyOrder))
		jobsPerS = append(jobsPerS, ops/s.wall)
		normJobsPerS = append(normJobsPerS, ops/s.wall/s.speed)
		speeds = append(speeds, s.speed)
		allocs = append(allocs, float64(s.mallocs)/ops)
		bytes = append(bytes, float64(s.bytes)/ops)
		if i%o.setupEvery() == o.setupEvery()-1 {
			if _, sec, err = setUp(w, o, c, len(setups)); err != nil {
				return nil, err
			}
			setups = append(setups, sec)
		}
	}

	r := &report{Workload: w.name, Mode: "end_to_end", Jobs: inst.jobs, Sweeps: len(jobsPerS)}
	r.Metrics = map[string]stat{
		"setup_s":         summarize(setups, "s"),
		"norm_jobs_per_s": summarize(normJobsPerS, "jobs/s"),
		"allocs_per_job":  summarize(allocs, "1/job"),
		"bytes_per_job":   summarize(bytes, "B/job"),
	}
	r.Raw = map[string]stat{
		"raw_jobs_per_s":  summarize(jobsPerS, "jobs/s"),
		"machine_speed_x": summarize(speeds, "x"),
	}
	c.fill(r)
	r.WallS = time.Since(begin).Seconds()
	return r, nil
}
