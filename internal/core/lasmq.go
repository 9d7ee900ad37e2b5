// Package core implements LAS_MQ, the paper's job scheduler: a multilevel
// queue that mimics shortest-job-first without prior size information.
//
// Jobs enter the highest-priority queue and are demoted as the service they
// have attained (optionally projected forward with stage awareness) crosses
// exponentially increasing thresholds (Algorithm 1). Capacity is split across
// queues by weighted fair sharing to avoid starvation, jobs within a queue
// are served one by one ordered by the container demand of their remaining
// tasks, and leftover capacity spills over so the scheduler stays work
// conserving (Algorithm 2).
package core

import (
	"fmt"
	"math"
	"slices"

	"lasmq/internal/mlq"
	"lasmq/internal/obs"
	"lasmq/internal/sched"
)

// Config controls the LAS_MQ policy. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Queues is the number of priority queues k (paper default: 10).
	Queues int
	// FirstThreshold is α₀, the service threshold of the highest-priority
	// queue in container-time units (paper: 100 on the testbed, 1 in the
	// trace-driven simulations).
	FirstThreshold float64
	// Step is the multiplicative factor p between consecutive thresholds
	// (paper default: 10).
	Step float64
	// QueueWeightDecay sets the weighted sharing across queues: queue i+1
	// receives 1/QueueWeightDecay times the weight of queue i. Weights are
	// normalized over non-empty queues. Must be >= 1; 1 means equal weights.
	// The paper does not specify the weights; 8 is our default (calibrated
	// against the paper's Fig. 7 shapes) and an ablation bench covers the
	// choice.
	QueueWeightDecay float64
	// StageAware selects the demotion metric: when true, the stage-aware
	// estimate (attained + projected current-stage service) drives queue
	// placement; when false, only exactly attained service does
	// (paper Sec. III-B).
	StageAware bool
	// OrderByDemand orders jobs within a queue by the container demand of
	// their remaining tasks (paper Sec. III-C); when false, queues are FIFO.
	OrderByDemand bool
}

// DefaultConfig returns the paper's testbed configuration.
func DefaultConfig() Config {
	return Config{
		Queues:           10,
		FirstThreshold:   100,
		Step:             10,
		QueueWeightDecay: 8,
		StageAware:       true,
		OrderByDemand:    true,
	}
}

// ordEntry is one job inside a queue's persistent within-queue order.
type ordEntry struct {
	demand float64 // RemainingDemand, the primary key under OrderByDemand
	seq    int
	slot   int // the job's slot, which indexes its record (dense.go)
}

// LASMQ is the multilevel-queue scheduler. It is stateful: it remembers which
// queue each job occupies — and each queue's within-queue order — across
// scheduling rounds, in one record per slot (dense.go). Use one instance per
// simulation run; it is not safe for concurrent use.
//
// The within-queue order is maintained incrementally (Algorithm 1 line 10):
// arrivals and demotions binary-insert into the target queue's persistent
// ordered list, and a demand change that leaves a job in place only marks its
// queue dirty. A dirty queue is re-checked for sortedness in one walk at the
// next allocation round, and the sort fallback fires only when the changed
// demands actually inverted the order — round-over-round, queues mostly stay
// sorted, so the steady path is O(live jobs) with no sorting at all.
//
// LAS_MQ has one implementation, the dense form of the round contract
// (dense.go); its map forms are sched.MapForms over it, as every policy's
// are. The tests hold it against schedtest.LiteralLASMQ, Algorithms 1 and 2
// written from the paper.
type LASMQ struct {
	cfg    Config
	levels *mlq.Levels

	// ordered holds each queue's (demand, seq)-sorted entries, and touched
	// flags queues whose members changed demand in place. ordered[q] is a
	// window list on the array base[q] (see internal/sched/window.go): an
	// entry joins through sched.Room and leaves through sched.Cut.
	ordered [][]ordEntry
	base    [][]ordEntry
	touched []bool
	// weights[i] is queue i's weight, QueueWeightDecay⁻ⁱ by repeated
	// division: it depends on neither the thresholds nor the round, so a
	// refit's ladder (resetLevels), which keeps the queue count, keeps it.
	weights []float64

	// One record per slot and the departures a sweep found; replace asks the
	// next sweep to re-place every job under a refitted ladder (resetLevels).
	recs    []slotRec
	exits   []exitRec
	replace bool
	// gone counts the logged departures (slotRec.at); walk is locate's budget;
	// call counts the AssignDense calls (slotRec.call).
	gone                  int32
	walk, walks, restamps int
	call                  uint32

	maps sched.MapForms

	// probe, when non-nil, receives queue-trajectory telemetry (enter/
	// demote/exit). Emissions never read back into scheduling decisions.
	probe obs.Probe
}

var (
	_ sched.Scheduler        = (*LASMQ)(nil)
	_ sched.BufferedAssigner = (*LASMQ)(nil)
	_ sched.Observer         = (*LASMQ)(nil)
	_ sched.ObserveHinter    = (*LASMQ)(nil)
	_ sched.Hinter           = (*LASMQ)(nil)
	_ obs.ProbeSetter        = (*LASMQ)(nil)
)

// New validates cfg and returns a fresh LAS_MQ scheduler.
func New(cfg Config) (*LASMQ, error) {
	levels, err := mlq.New(cfg.Queues, cfg.FirstThreshold, cfg.Step)
	if err != nil {
		return nil, err
	}
	// Written so that NaN fails: a NaN decay would make every share NaN.
	if !(cfg.QueueWeightDecay >= 1) || math.IsInf(cfg.QueueWeightDecay, 1) {
		return nil, fmt.Errorf("core: queue weight decay must be finite and >= 1, got %v", cfg.QueueWeightDecay)
	}
	lists := make([][]ordEntry, 2*cfg.Queues)
	weights := make([]float64, cfg.Queues)
	w := 1.0
	for i := range weights {
		weights[i] = w
		w /= cfg.QueueWeightDecay
	}
	return &LASMQ{
		cfg:     cfg,
		levels:  levels,
		ordered: lists[:cfg.Queues:cfg.Queues],
		base:    lists[cfg.Queues:],
		touched: make([]bool, cfg.Queues),
		weights: weights,
	}, nil
}

// Name implements sched.Scheduler.
func (s *LASMQ) Name() string { return "LAS_MQ" }

// SetProbe implements obs.ProbeSetter, attaching the telemetry probe that
// receives queue enter/demote/exit events.
func (s *LASMQ) SetProbe(p obs.Probe) { s.probe = p }

// Config returns the configuration the scheduler was built with.
func (s *LASMQ) Config() Config { return s.cfg }

// QueueOf reports the queue index the given job currently occupies and
// whether the job is known to the scheduler. Exposed for tests and
// instrumentation.
func (s *LASMQ) QueueOf(jobID int) (int, bool) {
	for i := range s.recs {
		if r := &s.recs[i]; r.live && r.id == jobID {
			return int(r.queue), true
		}
	}
	return 0, false
}

// QueueSizes returns the current number of tracked jobs per queue, for
// instrumentation (e.g. occupancy timelines).
func (s *LASMQ) QueueSizes() []int {
	sizes := make([]int, s.levels.Queues())
	for q := range s.ordered {
		sizes[q] = len(s.ordered[q])
	}
	return sizes
}

// metric returns the service value used for demotion decisions.
func (s *LASMQ) metric(j sched.JobView) float64 {
	if s.cfg.StageAware {
		return j.Estimated()
	}
	return j.Attained()
}

// Assign implements sched.Scheduler.
func (s *LASMQ) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	return s.maps.Assign(s, now, capacity, jobs)
}

// AssignInto implements sched.BufferedAssigner.
func (s *LASMQ) AssignInto(now, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	s.maps.AssignInto(s, now, capacity, jobs, out)
}

// Observe implements sched.Observer.
func (s *LASMQ) Observe(now float64, jobs []sched.JobView) { s.maps.Observe(s, now, jobs) }

// ObserveHorizon implements the inert sched.ObserveHinter and returns now:
// no substrate asks when LAS_MQ's state could next change, as a skipped round
// always observes. Only benchmark/trace.go's wrapper names it.
func (s *LASMQ) ObserveHorizon(now float64, _ []sched.JobView, _ sched.Assignment) float64 {
	return now
}

// Horizon implements sched.Hinter.
func (s *LASMQ) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	return s.maps.Horizon(s, now, jobs, alloc)
}

// restoreOrder re-checks the queues whose members changed demand in place
// since the last allocation round. One linear walk per dirty queue; the sort
// fallback fires only when the demand changes actually inverted the order.
func (s *LASMQ) restoreOrder() {
	for q := range s.touched {
		if !s.touched[q] {
			continue
		}
		s.touched[q] = false
		if !s.isSorted(s.ordered[q]) {
			s.sortList(s.ordered[q])
		}
	}
}

// insertEntry binary-inserts e into queue q's ordered list. Inserting into a
// dirty (touched) list may place e imprecisely; restoreOrder repairs that
// before the order is ever read.
func (s *LASMQ) insertEntry(q int, e ordEntry) {
	list := s.ordered[q]
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.entryLess(list[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	list = append(sched.Room(&s.base[q], list, len(list)+1), e)
	copy(list[lo+1:], list[lo:])
	list[lo] = e
	s.ordered[q] = list
}

// findEntry locates the entry filed under key in queue q by binary search,
// falling back to a linear scan when the list is dirty. Returns -1 if absent.
func (s *LASMQ) findEntry(q int, key ordEntry) int {
	list := s.ordered[q]
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.entryLess(list[mid], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo].slot == key.slot {
		return lo
	}
	for i := range list {
		if list[i].slot == key.slot {
			return i
		}
	}
	return -1
}

// removeEntry deletes the entry filed under key from queue q's ordered list
// by a one-index sched.Cut, which moves the entries on the shorter side of
// it: a demotion takes the job from near the head of its queue, which then
// costs no move.
func (s *LASMQ) removeEntry(q int, key ordEntry) {
	if pos := s.findEntry(q, key); pos >= 0 {
		s.ordered[q] = sched.Cut(s.ordered[q], []int32{int32(pos)})
	}
}

// entryLess orders jobs within one queue (Algorithm 1 line 10). Sequence
// numbers are unique, making the order total (stability is irrelevant).
func (s *LASMQ) entryLess(a, b ordEntry) bool {
	if s.cfg.OrderByDemand && a.demand != b.demand {
		return a.demand < b.demand
	}
	return a.seq < b.seq
}

func (s *LASMQ) isSorted(list []ordEntry) bool {
	for i := 1; i < len(list); i++ {
		if s.entryLess(list[i], list[i-1]) {
			return false
		}
	}
	return true
}

// sortList is the metric-inversion fallback. Capture-free comparators keep
// the (rare) path allocation-free.
func (s *LASMQ) sortList(list []ordEntry) {
	if s.cfg.OrderByDemand {
		slices.SortFunc(list, compareDemandSeq)
	} else {
		slices.SortFunc(list, compareSeq)
	}
}

func compareDemandSeq(a, b ordEntry) int {
	if a.demand != b.demand {
		if a.demand < b.demand {
			return -1
		}
		return 1
	}
	return compareSeq(a, b)
}

func compareSeq(a, b ordEntry) int {
	if a.seq < b.seq {
		return -1
	}
	return 1
}
