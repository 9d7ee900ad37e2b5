package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"lasmq/internal/mlq"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// AdaptiveConfig controls the adaptive-threshold variant of LAS_MQ — the
// paper's first future-work direction ("make the scheduler more adaptable
// for different workloads"): instead of fixing the first threshold and step
// a priori, the scheduler refits the whole threshold ladder online from the
// sizes of completed jobs.
type AdaptiveConfig struct {
	// Queues is the number of priority queues k.
	Queues int
	// QueueWeightDecay is the cross-queue weight decay (see Config).
	QueueWeightDecay float64
	// StageAware and OrderByDemand select the two testbed features
	// (see Config).
	StageAware    bool
	OrderByDemand bool
	// Initial provides the threshold ladder used until enough completions
	// have been observed: first threshold and step.
	InitialThreshold float64
	InitialStep      float64
	// WarmupJobs is the number of completed jobs observed before the first
	// refit.
	WarmupJobs int
	// RefitEvery is the number of completions between refits.
	RefitEvery int
	// LowQuantile sets the first threshold: the q-quantile of observed
	// completed-job sizes (so roughly a q fraction of jobs finish in the
	// top queue). HighQuantile anchors the last threshold.
	LowQuantile  float64
	HighQuantile float64
	// MaxHistory bounds the completion-size history (a sliding window, so
	// the ladder tracks workload drift). Zero means unbounded.
	MaxHistory int
}

// DefaultAdaptiveConfig returns an adaptive scheduler that starts from the
// paper's testbed ladder and refits every 50 completions.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Queues:           10,
		QueueWeightDecay: 8,
		StageAware:       true,
		OrderByDemand:    true,
		InitialThreshold: 100,
		InitialStep:      10,
		WarmupJobs:       50,
		RefitEvery:       50,
		LowQuantile:      0.2,
		HighQuantile:     0.98,
		MaxHistory:       5000,
	}
}

// Adaptive is LAS_MQ with an online-fitted threshold ladder. It observes the
// attained service of jobs that leave the system, and periodically rebuilds
// the exponential ladder so the first threshold sits at the LowQuantile of
// completed job sizes and the second-to-last queue's threshold at the
// HighQuantile. Jobs are re-placed under the new ladder from their current
// attained service.
type Adaptive struct {
	cfg   AdaptiveConfig
	inner *LASMQ // driven through its dense forms

	recs       []adaptiveRec // by slot: the job holding it and its last attained service
	history    []float64     // completed-job sizes (sliding window)
	sinceRefit int
	refits     int
	totalSeen  int
	departed   []adaptiveRec // scratch
	maps       sched.MapForms

	// probe, when non-nil, receives threshold-refit telemetry; queue events
	// flow from the inner LAS_MQ, which shares the same probe.
	probe obs.Probe
}

// adaptiveRec is Adaptive's record of the job holding a slot.
type adaptiveRec struct {
	id       int
	attained float64 // when the change log last named the job
	live     bool
}

var (
	_ sched.Scheduler        = (*Adaptive)(nil)
	_ sched.BufferedAssigner = (*Adaptive)(nil)
	_ sched.Observer         = (*Adaptive)(nil)
	_ sched.Hinter           = (*Adaptive)(nil)
	_ sched.DenseAssigner    = (*Adaptive)(nil)
	_ sched.DenseHinter      = (*Adaptive)(nil)
	_ sched.DenseObserver    = (*Adaptive)(nil)
	_ obs.ProbeSetter        = (*Adaptive)(nil)
)

// NewAdaptive validates cfg and returns a fresh adaptive scheduler.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.WarmupJobs < 1 {
		return nil, fmt.Errorf("core: warmup jobs must be >= 1, got %d", cfg.WarmupJobs)
	}
	if cfg.RefitEvery < 1 {
		return nil, fmt.Errorf("core: refit interval must be >= 1, got %d", cfg.RefitEvery)
	}
	// Written so that NaN fails: a NaN quantile indexes outside the history.
	if !(cfg.LowQuantile > 0 && cfg.LowQuantile < 1) {
		return nil, fmt.Errorf("core: LowQuantile must be in (0, 1), got %v", cfg.LowQuantile)
	}
	if !(cfg.HighQuantile > cfg.LowQuantile && cfg.HighQuantile < 1) {
		return nil, fmt.Errorf("core: HighQuantile must be in (LowQuantile, 1) = (%v, 1), got %v",
			cfg.LowQuantile, cfg.HighQuantile)
	}
	if cfg.MaxHistory < 0 {
		return nil, fmt.Errorf("core: max history must be >= 0, got %d", cfg.MaxHistory)
	}
	inner, err := New(Config{
		Queues:           cfg.Queues,
		FirstThreshold:   cfg.InitialThreshold,
		Step:             cfg.InitialStep,
		QueueWeightDecay: cfg.QueueWeightDecay,
		StageAware:       cfg.StageAware,
		OrderByDemand:    cfg.OrderByDemand,
	})
	if err != nil {
		return nil, err
	}
	return &Adaptive{cfg: cfg, inner: inner}, nil
}

// Name implements sched.Scheduler.
func (a *Adaptive) Name() string { return "LAS_MQ_ADAPTIVE" }

// SetProbe implements obs.ProbeSetter, forwarding the probe to the inner
// LAS_MQ so queue-trajectory events keep flowing when the policy is used
// through the adaptive wrapper.
func (a *Adaptive) SetProbe(p obs.Probe) {
	a.probe = p
	a.inner.SetProbe(p)
}

// Refits reports how many times the threshold ladder has been refitted.
func (a *Adaptive) Refits() int { return a.refits }

// Thresholds returns the current ladder (first threshold of each demoting
// queue), for instrumentation.
func (a *Adaptive) Thresholds() []float64 {
	out := make([]float64, 0, a.cfg.Queues-1)
	for i := 0; i < a.cfg.Queues-1; i++ {
		out = append(out, a.inner.levels.Threshold(i))
	}
	return out
}

// Assign implements sched.Scheduler.
func (a *Adaptive) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	return a.maps.Assign(a, now, capacity, jobs)
}

// AssignInto implements sched.BufferedAssigner.
func (a *Adaptive) AssignInto(now float64, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	a.maps.AssignInto(a, now, capacity, jobs, out)
}

// Observe implements sched.Observer.
func (a *Adaptive) Observe(now float64, jobs []sched.JobView) { a.maps.Observe(a, now, jobs) }

// Horizon implements sched.Hinter.
func (a *Adaptive) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	return a.maps.Horizon(a, now, jobs, alloc)
}

// AssignDense implements sched.DenseAssigner: record completions, refit if
// due, then delegate to the inner LAS_MQ.
func (a *Adaptive) AssignDense(now, capacity float64, jobs []sched.JobView, slots, changed, freed []int32, shares *sched.Shares) {
	a.observe(now, jobs, slots, changed, freed)
	a.inner.AssignDense(now, capacity, jobs, slots, changed, freed, shares)
}

// ObserveDense implements sched.DenseObserver: exactly the state mutation
// AssignDense performs, without computing an allocation.
func (a *Adaptive) ObserveDense(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	a.observe(now, jobs, slots, changed, freed)
	a.inner.ObserveDense(now, jobs, slots, changed, freed)
}

// HorizonDense implements sched.DenseHinter by delegation.
func (a *Adaptive) HorizonDense(now float64, jobs []sched.JobView, slots []int32, shares *sched.Shares) float64 {
	return a.inner.HorizonDense(now, jobs, slots, shares)
}

// observe keeps each live job's attained service by slot from the change
// log (see internal/sched/dense.go): a job whose slot was freed left with the
// attained service of the last call that saw it as its size — the last call
// whose log named it, as a job no later log names received no service since.
// Sizes join the history in ascending job-ID order, so the fitted ladder does
// not depend on the order jobs left in. Then it refits if due.
func (a *Adaptive) observe(now float64, jobs []sched.JobView, slots, changed, freed []int32) {
	departed := a.departed[:0]
	for _, slot := range freed {
		if int(slot) < len(a.recs) && a.recs[slot].live {
			departed = append(departed, a.recs[slot])
			a.recs[slot].live = false
		}
	}
	n := len(changed)
	if changed == nil {
		n = len(jobs)
	}
	for k := 0; k < n; k++ {
		i := k
		if changed != nil {
			i = int(changed[k])
		}
		slot := int(slots[i])
		a.recs = sched.GrowSlots(a.recs, slot, len(jobs))
		a.recs[slot] = adaptiveRec{id: jobs[i].ID(), attained: jobs[i].Attained(), live: true}
	}
	a.departed = departed
	slices.SortFunc(departed, func(x, y adaptiveRec) int { return cmp.Compare(x.id, y.id) })
	for _, d := range departed {
		if d.attained <= 0 {
			continue
		}
		a.history = append(a.history, d.attained)
		if a.cfg.MaxHistory > 0 && len(a.history) > a.cfg.MaxHistory {
			a.history = a.history[len(a.history)-a.cfg.MaxHistory:]
		}
		a.sinceRefit++
		a.totalSeen++
	}
	if a.dueForRefit() {
		a.refit(now)
	}
}

func (a *Adaptive) dueForRefit() bool {
	if a.totalSeen < a.cfg.WarmupJobs {
		return false
	}
	if a.refits == 0 {
		return true // first refit right after warmup
	}
	return a.sinceRefit >= a.cfg.RefitEvery
}

// refit rebuilds the exponential ladder from the completion-size history and
// has the inner scheduler re-place its jobs under it.
func (a *Adaptive) refit(now float64) {
	k := a.cfg.Queues
	if k < 2 || len(a.history) == 0 {
		return
	}
	sorted := append([]float64(nil), a.history...)
	sort.Float64s(sorted)
	low := quantileSorted(sorted, a.cfg.LowQuantile)
	high := quantileSorted(sorted, a.cfg.HighQuantile)
	if low <= 0 {
		low = math.SmallestNonzeroFloat64
	}
	if high < low*2 {
		high = low * 2
	}
	// Ladder: alpha_0 = low, alpha_{k-2} = high.
	step := 2.0
	if k > 2 {
		step = math.Pow(high/low, 1/float64(k-2))
		if step < 1.5 {
			step = 1.5
		}
	}
	levels, err := mlq.New(k, low, step)
	if err != nil {
		return // keep the previous ladder; inputs were degenerate
	}
	// The inner scheduler's next sweep re-places this round's jobs.
	a.inner.resetLevels(levels)
	a.sinceRefit = 0
	a.refits++
	if a.probe != nil {
		a.probe.ThresholdRefit(now, low, step)
	}
}

// quantileSorted returns the q-quantile of a sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
