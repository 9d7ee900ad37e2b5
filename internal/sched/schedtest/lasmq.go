package schedtest

import (
	"cmp"
	"math"
	"slices"

	"lasmq/internal/sched"
)

// LiteralLASMQ is LAS_MQ written from the paper's Algorithms 1 and 2, for
// tests to hold core.LASMQ against: a map-only policy that keeps each live
// job's queue across rounds and works everything else out afresh every round.
//
//   - Demote-only: a job enters queue 0 and moves down while its metric
//     (Estimated under StageAware, else Attained) strictly exceeds its
//     queue's threshold α₀·pⁱ. The last queue has none.
//   - In-queue order: by (RemainingDemand, Seq) under OrderByDemand, else Seq.
//   - Weights: queue i weighs Decay⁻ⁱ over the non-empty queues; its budget
//     goes to its jobs in order, min(budget, unmet ready demand) each.
//   - Spill: what is left, while over 1e-12, goes out in queue order.
//   - Horizon: the earliest threshold crossing of a served job.
type LiteralLASMQ struct {
	Queues         int     // k
	FirstThreshold float64 // α₀
	Step           float64 // p
	Decay          float64 // queue i+1 weighs 1/Decay of queue i
	StageAware     bool
	OrderByDemand  bool

	queue map[int]int // job ID -> queue
}

var _ interface {
	sched.Observer
	sched.Hinter
} = (*LiteralLASMQ)(nil)

// Name implements sched.Scheduler: LAS_MQ's name, so that results compare.
func (l *LiteralLASMQ) Name() string { return "LAS_MQ" }

// QueueOf reports the queue the job occupies and whether it is live.
func (l *LiteralLASMQ) QueueOf(id int) (int, bool) {
	q, ok := l.queue[id]
	return q, ok
}

func (l *LiteralLASMQ) metric(j sched.JobView) float64 {
	if l.StageAware {
		return j.Estimated()
	}
	return j.Attained()
}

// threshold is queue i's demotion threshold, α₀·pⁱ, +Inf for the last queue.
func (l *LiteralLASMQ) threshold(i int) float64 {
	return threshold(l.Queues, l.FirstThreshold, l.Step, i)
}

// threshold is queue i's demotion threshold in a ladder of k queues that
// starts at α₀ = first and grows by p = step: α₀·pⁱ, +Inf for the last queue.
func threshold(k int, first, step float64, i int) float64 {
	if i >= k-1 {
		return math.Inf(1)
	}
	t := first
	for ; i > 0; i-- {
		t *= step
	}
	return t
}

// Observe implements sched.Observer: Algorithm 1's queue update. A job the
// call does not name has left and is forgotten.
func (l *LiteralLASMQ) Observe(_ float64, jobs []sched.JobView) {
	next := make(map[int]int, len(jobs))
	for _, j := range jobs {
		q := l.queue[j.ID()]
		for l.metric(j) > l.threshold(q) {
			q++
		}
		next[j.ID()] = q
	}
	l.queue = next
}

// Assign implements sched.Scheduler: Algorithm 1, then Algorithm 2.
func (l *LiteralLASMQ) Assign(now, capacity float64, jobs []sched.JobView) sched.Assignment {
	l.Observe(now, jobs)
	queues := make([][]sched.JobView, l.Queues)
	for _, j := range jobs {
		q := l.queue[j.ID()]
		queues[q] = append(queues[q], j)
	}
	total, w := 0.0, 1.0 // Σ Decay⁻ⁱ over the non-empty queues
	for _, q := range queues {
		slices.SortFunc(q, func(a, b sched.JobView) int {
			if l.OrderByDemand && a.RemainingDemand() != b.RemainingDemand() {
				return cmp.Compare(a.RemainingDemand(), b.RemainingDemand())
			}
			return cmp.Compare(a.Seq(), b.Seq())
		})
		if len(q) > 0 {
			total += w
		}
		w /= l.Decay
	}
	out, unmet := sched.Assignment{}, map[int]float64{}
	for _, j := range jobs {
		unmet[j.ID()] = j.ReadyDemand()
	}
	// serve hands amount to q's jobs in order until no more than floor is
	// left, and returns what is left.
	serve := func(q []sched.JobView, amount, floor float64) float64 {
		for _, j := range q {
			if amount <= floor {
				break
			}
			if d := unmet[j.ID()]; d > 0 {
				x := min(amount, d)
				out[j.ID()] += x
				unmet[j.ID()] -= x
				amount -= x
			}
		}
		return amount
	}
	left, w := 0.0, 1.0
	for _, q := range queues {
		if len(q) > 0 {
			left += serve(q, capacity*w/total, 0)
		}
		w /= l.Decay
	}
	for _, q := range queues {
		left = serve(q, left, 1e-12)
	}
	return out
}

// Horizon implements sched.Hinter; a job on its threshold crosses 1e-9 later.
func (l *LiteralLASMQ) Horizon(now float64, jobs []sched.JobView, alloc sched.Assignment) float64 {
	h := math.Inf(1)
	for _, j := range jobs {
		if rate := alloc[j.ID()]; rate > 0 {
			t := now + math.Max(l.threshold(l.queue[j.ID()])-l.metric(j), 0)/rate
			if t <= now {
				t = now + 1e-9
			}
			if t < h {
				h = t
			}
		}
	}
	return h
}
