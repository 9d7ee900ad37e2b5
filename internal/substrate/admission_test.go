package substrate

import "testing"

// slots returns the queue's whole backing array, released slots included.
func slots[J any](q *Queue[J]) []J { return q.waiting[:cap(q.waiting)] }

// TestQueueDrainedCycleDoesNotAllocate pins the head-index pop: a queue that
// has drained keeps its backing array, so the steady arrive/admit/complete
// cycle of a streamed run costs no allocation per job.
func TestQueueDrainedCycleDoesNotAllocate(t *testing.T) {
	q := NewQueue[*int](2)
	job := new(int)
	release := func(*int, int) {}
	cycle := func() {
		q.Push(job)
		q.Admit(release)
		q.Done()
	}
	cycle() // the first Push allocates the array
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("push/admit/done on a drained queue: %v allocs per cycle, want 0", allocs)
	}
	if q.Waiting() != 0 || q.Running() != 0 {
		t.Fatalf("after the cycles waiting=%d running=%d, want 0 0", q.Waiting(), q.Running())
	}
}

// TestQueueCountsAndReleasesAfterPartialAdmission: Waiting and Stuck count
// only the jobs not yet released, and a released job is gone from the backing
// array (a pooled record the run has recycled must not stay reachable from
// the queue), both while the queue is part-drained and after the rewind.
func TestQueueCountsAndReleasesAfterPartialAdmission(t *testing.T) {
	q := NewQueue[*int](2)
	jobs := make([]*int, 5)
	for i := range jobs {
		jobs[i] = new(int)
		q.Push(jobs[i])
	}
	var got []*int
	release := func(j *int, _ int) { got = append(got, j) }

	q.Admit(release)
	if len(got) != 2 || got[0] != jobs[0] || got[1] != jobs[1] {
		t.Fatalf("admitted %v, want the first two jobs in order", got)
	}
	if q.Waiting() != 3 {
		t.Fatalf("Waiting = %d after admitting 2 of 5, want 3", q.Waiting())
	}
	if err, want := q.Stuck("engine"), "engine: 3 jobs stuck in admission with empty cluster"; err.Error() != want {
		t.Fatalf("Stuck = %q, want %q", err, want)
	}
	for i, x := range slots(q) {
		if x == jobs[0] || x == jobs[1] {
			t.Fatalf("released job still in slot %d of the backing array", i)
		}
	}

	q.Done()
	q.Done()
	q.Admit(release)
	q.Done()
	q.Done()
	q.Admit(release)
	if len(got) != 5 || q.Waiting() != 0 {
		t.Fatalf("admitted %d jobs, waiting %d, want 5 and 0", len(got), q.Waiting())
	}
	for i, x := range slots(q) {
		if x != nil {
			t.Fatalf("drained queue still holds a job in slot %d", i)
		}
	}
}

// TestQueueBacklogDoesNotGrowWithoutBound: under a binding cap the queue may
// never drain, so it never rewinds; the array must still track the backlog,
// not the number of jobs that ever passed through, and keep FIFO order and
// dense sequence numbers across the compactions.
func TestQueueBacklogDoesNotGrowWithoutBound(t *testing.T) {
	const backlog, total = 5, 100000
	q := NewQueue[int](1)
	next := 0
	release := func(j, seq int) {
		if j != next || seq != next {
			t.Fatalf("released (job %d, seq %d), want (%d, %d)", j, seq, next, next)
		}
		next++
	}
	for i := 0; i < total; i++ {
		q.Push(i)
		if i >= backlog {
			q.Admit(release)
			q.Done()
		}
	}
	if q.Waiting() != backlog {
		t.Fatalf("Waiting = %d, want the standing backlog %d", q.Waiting(), backlog)
	}
	if c := cap(q.waiting); c > 8*backlog {
		t.Fatalf("backing array grew to %d slots for a backlog of %d", c, backlog)
	}
}
