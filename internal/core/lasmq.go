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

// trackRec is the scheduler's persistent record of one job: the queue it
// occupies plus the exact ordering key — (demand, seq) — its entry in that
// queue's ordered list carries. Keeping the key cached is what makes the
// incremental list maintenance possible: removal and repositioning locate
// the entry by binary search on the stored key instead of scanning.
type trackRec struct {
	queue  int
	demand float64
	seq    int
}

// ordEntry is one job inside a queue's persistent within-queue order.
type ordEntry struct {
	demand float64 // RemainingDemand, the primary key under OrderByDemand
	seq    int
	id     int // the job's ID; on the dense path (dense.go) its slot
}

// LASMQ is the multilevel-queue scheduler. It is stateful: it remembers which
// queue each job occupies — and each queue's within-queue order — across
// scheduling rounds. Use one instance per simulation run; it is not safe for
// concurrent use.
//
// The within-queue order is maintained incrementally (Algorithm 1 line 10):
// arrivals and demotions binary-insert into the target queue's persistent
// ordered list, and a demand change that leaves a job in place only marks its
// queue dirty. A dirty queue is re-checked for sortedness in one walk at the
// next allocation round, and the sort fallback fires only when the changed
// demands actually inverted the order — round-over-round, queues mostly stay
// sorted, so the steady path is O(live jobs) with no sorting at all.
//
// The methods in this file are the map form of the round contract, keyed by
// job ID: what benchmark's tracer calls, and the oracle the dense form
// (dense.go, per-job records indexed by slot) is tested against. One instance
// runs on one of them.
type LASMQ struct {
	cfg    Config
	levels *mlq.Levels

	// Persistent incremental state: tracked mirrors every live job's queue
	// and ordering key, ordered holds each queue's (demand, seq)-sorted
	// entries, and touched flags queues whose members changed demand in
	// place.
	tracked map[int]trackRec
	ordered [][]ordEntry
	touched []bool

	// Scratch buffers reused across rounds to keep large simulations
	// allocation-free on the hot path.
	seen      map[int]bool
	remaining map[int]float64
	weights   []float64
	departed  []int

	// The dense path's state (dense.go), in place of tracked, seen and
	// remaining: one record per slot and the departures a sweep found. dense
	// is set by the first dense call and tells QueueOf and QueueSizes where to
	// look; replace asks the next sweep to re-place every job under a refitted
	// ladder (resetLevels).
	recs    []slotRec
	exits   []exitRec
	dense   bool
	replace bool

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
	return &LASMQ{
		cfg:       cfg,
		levels:    levels,
		tracked:   make(map[int]trackRec),
		ordered:   make([][]ordEntry, cfg.Queues),
		touched:   make([]bool, cfg.Queues),
		seen:      make(map[int]bool),
		remaining: make(map[int]float64),
		weights:   make([]float64, cfg.Queues),
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
	if s.dense {
		for i := range s.recs {
			if r := &s.recs[i]; r.live && r.id == jobID {
				return int(r.queue), true
			}
		}
		return 0, false
	}
	rec, ok := s.tracked[jobID]
	return rec.queue, ok
}

// QueueSizes returns the current number of tracked jobs per queue, for
// instrumentation (e.g. occupancy timelines).
func (s *LASMQ) QueueSizes() []int {
	sizes := make([]int, s.levels.Queues())
	if s.dense {
		for q := range s.ordered {
			sizes[q] = len(s.ordered[q])
		}
		return sizes
	}
	for _, rec := range s.tracked {
		sizes[rec.queue]++
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
func (s *LASMQ) Assign(now float64, capacity float64, jobs []sched.JobView) sched.Assignment {
	out := make(sched.Assignment, len(jobs))
	s.AssignInto(now, capacity, jobs, out)
	return out
}

// Observe implements sched.Observer: it applies exactly the state mutation
// Assign performs — demote-only queue membership updates and dropping state
// for departed jobs (Algorithm 1) — without computing an allocation. The
// task-level engine calls it at instants where no launch is possible, so
// that skipping the full round cannot change queue trajectories. Demotion is
// deterministic in the current metric, so observing twice at one instant is
// the same as observing once.
func (s *LASMQ) Observe(now float64, jobs []sched.JobView) {
	s.sweep(now, jobs)
}

// ObserveHorizon implements sched.ObserveHinter: after an Observe every
// job's metric sits at or below its queue's threshold (demotion is
// strict-exceed), so given per-job upper bounds on metric growth rate the
// earliest possible next demotion is the earliest threshold crossing. A job
// whose bound is missing or infinite makes the horizon collapse to now
// (no skipping). Departures are not covered: the caller must not skip past
// a job-set change.
func (s *LASMQ) ObserveHorizon(now float64, jobs []sched.JobView, rates sched.Assignment) float64 {
	horizon := math.Inf(1)
	for _, j := range jobs {
		rec, ok := s.tracked[j.ID()]
		if !ok {
			return now // not yet observed; cannot bound
		}
		threshold := s.levels.Threshold(rec.queue)
		if math.IsInf(threshold, 1) {
			continue // last queue: never demoted again
		}
		rate := rates[j.ID()]
		if rate <= 0 {
			continue // metric cannot grow
		}
		if math.IsInf(rate, 1) {
			return now
		}
		gap := threshold - s.metric(j)
		if gap <= 0 {
			return now // sitting on the threshold; next growth demotes
		}
		if t := now + gap/rate; t < horizon {
			horizon = t
		}
	}
	return horizon
}

// AssignInto implements sched.BufferedAssigner. It first updates queue
// membership and per-queue order (Algorithm 1), then splits capacity across
// queues by weighted sharing and serves jobs one by one within each queue,
// spilling leftover capacity to any job with unmet demand (Algorithm 2).
func (s *LASMQ) AssignInto(now float64, capacity float64, jobs []sched.JobView, out sched.Assignment) {
	k := s.levels.Queues()

	// Algorithm 1: demote-only queue updates, arrivals, departures, and the
	// incremental within-queue order maintenance (line 10).
	s.sweep(now, jobs)
	s.restoreOrder()

	// Algorithm 2 line 1: split capacity across non-empty queues by weight.
	weights := s.weights[:k]
	var totalWeight float64
	w := 1.0
	for i := 0; i < k; i++ {
		weights[i] = 0
		if len(s.ordered[i]) > 0 {
			weights[i] = w
			totalWeight += w
		}
		w /= s.cfg.QueueWeightDecay
	}
	clear(out)
	if totalWeight == 0 {
		return
	}

	remaining := s.remaining // unmet ready demand per job
	clear(remaining)
	for _, j := range jobs {
		if d := j.ReadyDemand(); d > 0 {
			remaining[j.ID()] = d
		}
	}

	// Algorithm 2 lines 3-12: within each queue's budget, serve jobs one by
	// one in queue order.
	leftover := 0.0
	for i := 0; i < k; i++ {
		budget := capacity * weights[i] / totalWeight
		for _, e := range s.ordered[i] {
			if budget <= 0 {
				break
			}
			d := remaining[e.id]
			if d <= 0 {
				continue
			}
			x := math.Min(budget, d)
			out[e.id] += x
			remaining[e.id] -= x
			budget -= x
		}
		leftover += budget
	}

	// Algorithm 2 line 13 (work conservation): spill leftover capacity to any
	// job with unmet demand, highest-priority queues first.
	for i := 0; i < k && leftover > 1e-12; i++ {
		for _, e := range s.ordered[i] {
			if leftover <= 1e-12 {
				break
			}
			d := remaining[e.id]
			if d <= 0 {
				continue
			}
			x := math.Min(leftover, d)
			out[e.id] += x
			remaining[e.id] -= x
			leftover -= x
		}
	}
}

// sweep applies Algorithm 1's per-round state mutation over the current job
// views: demote-only queue updates, binary insertion of arrivals and demoted
// jobs, removal of departed jobs, and in-place demand refresh (which marks
// the queue dirty instead of re-sorting eagerly). Shared by Observe and
// AssignInto so skipped rounds keep the persistent order exactly in sync.
func (s *LASMQ) sweep(now float64, jobs []sched.JobView) {
	seen := s.seen
	clear(seen)
	for _, j := range jobs {
		id := j.ID()
		seen[id] = true
		m := s.metric(j)
		rec, ok := s.tracked[id]
		if !ok {
			// Arrival: place from the top queue and binary-insert.
			d, seq := j.RemainingDemand(), j.Seq()
			q := s.levels.Demote(0, m)
			s.insertEntry(q, ordEntry{demand: d, seq: seq, id: id})
			s.tracked[id] = trackRec{queue: q, demand: d, seq: seq}
			if s.probe != nil {
				s.probe.QueueEnter(now, id, q)
			}
			continue
		}
		q := s.levels.Demote(rec.queue, m)
		d := j.RemainingDemand()
		if q != rec.queue {
			// Demotion: move the entry between queue lists by its stored key.
			s.removeEntry(rec.queue, rec, id)
			s.insertEntry(q, ordEntry{demand: d, seq: rec.seq, id: id})
			s.tracked[id] = trackRec{queue: q, demand: d, seq: rec.seq}
			if s.probe != nil {
				s.probe.QueueDemote(now, id, rec.queue, q, m)
			}
			continue
		}
		if s.cfg.OrderByDemand && d != rec.demand {
			// Demand changed but the job stays put: refresh the entry's key in
			// place and defer the (usually unnecessary) re-sort to
			// restoreOrder's single sortedness walk.
			if pos := s.findEntry(rec.queue, rec, id); pos >= 0 {
				s.ordered[rec.queue][pos].demand = d
			}
			s.touched[rec.queue] = true
			rec.demand = d
			s.tracked[id] = rec
		}
	}
	s.departed = s.departed[:0]
	for id := range s.tracked { // range-ok: per-id collection, order restored by sort below
		if !seen[id] {
			s.departed = append(s.departed, id)
		}
	}
	slices.Sort(s.departed) // deterministic departure order for removal + telemetry
	for _, id := range s.departed {
		rec := s.tracked[id]
		s.removeEntry(rec.queue, rec, id)
		delete(s.tracked, id)
		if s.probe != nil {
			s.probe.QueueExit(now, id, rec.queue)
		}
	}
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
	list = append(list, ordEntry{})
	copy(list[lo+1:], list[lo:])
	list[lo] = e
	s.ordered[q] = list
}

// findEntry locates the job's entry in queue q by its stored key, falling
// back to a linear scan when the list is dirty. Returns -1 if absent.
func (s *LASMQ) findEntry(q int, rec trackRec, id int) int {
	list := s.ordered[q]
	key := ordEntry{demand: rec.demand, seq: rec.seq, id: id}
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.entryLess(list[mid], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo].id == id {
		return lo
	}
	for i := range list {
		if list[i].id == id {
			return i
		}
	}
	return -1
}

// removeEntry deletes the job's entry from queue q's ordered list.
func (s *LASMQ) removeEntry(q int, rec trackRec, id int) {
	if pos := s.findEntry(q, rec, id); pos >= 0 {
		list := s.ordered[q]
		copy(list[pos:], list[pos+1:])
		s.ordered[q] = list[:len(list)-1]
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

// Horizon implements sched.Hinter: the decision can change before the next
// external event when a running job's service metric crosses its queue's
// demotion threshold. Used by the fluid engine, where the metric grows at
// exactly the allocation rate.
func (s *LASMQ) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	horizon := math.Inf(1)
	for _, j := range jobs {
		rate := alloc[j.ID()]
		if rate <= 0 {
			continue
		}
		rec, ok := s.tracked[j.ID()]
		if !ok {
			continue
		}
		threshold := s.levels.Threshold(rec.queue)
		if math.IsInf(threshold, 1) {
			continue // last queue: never demoted again
		}
		gap := threshold - s.metric(j)
		t := now + math.Max(gap, 0)/rate
		if t <= now {
			// The metric sits exactly on the threshold; a strictly positive
			// nudge lets it cross so the next round demotes the job.
			t = now + 1e-9
		}
		if t < horizon {
			horizon = t
		}
	}
	return horizon
}
