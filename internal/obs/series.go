package obs

import (
	"io"
	"slices"
	"strconv"
	"sync"
)

// SeriesPoint is the state of a run just after one scheduling round: its
// queues after the policy call and its containers after the launches. Times
// are virtual; EventsPerSec is probe events per virtual second since the
// previous point (0 on a run's first point).
type SeriesPoint struct {
	Time float64
	// LiveJobs counts submitted jobs not yet done, WaitingJobs those of them
	// the admission queue still holds; the difference is the running jobs.
	LiveJobs, WaitingJobs int32
	// RunningContainers counts the containers held by running task attempts
	// (a fluid run launches no tasks, so it holds none).
	RunningContainers int32
	// QueueDepth counts jobs per LAS_MQ queue level, one entry per level the
	// run has entered so far.
	QueueDepth   []int32
	EventsPerSec float64
}

// Series is the windowed virtual-time view of a run: live, waiting and
// running jobs, running containers and the jobs in each LAS_MQ queue level,
// one point per window. A round at or past the window's edge (the first of a
// run always) makes a point due; the point is taken at the first later event
// that carries a different time, or by Points, so it holds everything the
// round did. A round earlier than the last one starts a new run on the same
// sink: the window restarts there, and the queue depths start from empty,
// as the new run's policy does. Like the other sinks it observes without
// mutating, so probed runs stay byte-identical.
//
// A task's TaskDone ends every attempt of it, because the engine kills a
// finished task's speculative siblings without an event of their own.
type Series struct {
	emitter
	mu     sync.Mutex
	window float64
	// gauges, updated on every event
	live, waiting, running int32
	tasks                  map[[3]int32]taskAttempts // per (job, stage, task)
	depth                  []int32
	// sampling
	events    uint64
	winEvents uint64  // events since the last point
	last      float64 // time of the last round
	start     float64 // time of the last point
	started   bool    // the current run has a point
	due       bool    // a point at time last is still to be taken
	span      float64 // virtual time the due point's events cover
	points    []SeriesPoint
}

// taskAttempts is one task's live attempts and the containers each holds.
type taskAttempts struct{ n, containers int32 }

// NewSeries returns a Series taking one point per window virtual seconds
// (window <= 0 defaults to 1).
func NewSeries(window float64) *Series {
	if window <= 0 {
		window = 1
	}
	s := &Series{window: window, tasks: make(map[[3]int32]taskAttempts)}
	s.emitter = emitter{s}
	return s
}

// level returns the depth counter of queue level q, growing the levels seen.
func (s *Series) level(q int32) *int32 {
	if int(q) >= len(s.depth) {
		s.depth = append(s.depth, make([]int32, int(q)+1-len(s.depth))...)
	}
	return &s.depth[q]
}

// Record implements Sink.
func (s *Series) Record(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.due && ev.T != s.last {
		s.take()
	}
	s.events++
	s.winEvents++
	task := [3]int32{ev.A, ev.B, ev.C}
	switch ev.Kind {
	case KindJobSubmitted:
		s.live++
		s.waiting++
	case KindJobAdmitted:
		s.waiting--
	case KindJobDone:
		s.live--
	case KindTaskStart:
		t := s.tasks[task]
		t.n, t.containers = t.n+1, ev.D
		s.tasks[task] = t
		s.running += ev.D
	case KindTaskDone:
		t := s.tasks[task]
		s.running -= t.n * t.containers
		delete(s.tasks, task)
	case KindTaskFail:
		t := s.tasks[task]
		s.running -= t.containers
		if t.n--; t.n > 0 {
			s.tasks[task] = t
		} else {
			delete(s.tasks, task)
		}
	case KindQueueEnter:
		*s.level(ev.B)++
	case KindQueueDemote:
		*s.level(ev.B)--
		*s.level(ev.C)++
	case KindQueueExit:
		*s.level(ev.B)--
	case KindRoundExecuted, KindRoundSkipped:
		s.round(ev.T)
	}
}

// round makes a point due at a round that opens a run or reaches the
// window's edge. Called with s.mu held.
func (s *Series) round(now float64) {
	if now < s.last {
		s.started = false
		clear(s.depth)
	}
	s.last = now
	switch {
	case !s.started:
		s.started, s.due, s.span = true, true, 0
	case now >= s.start+s.window:
		s.due, s.span = true, now-s.start
	}
}

// take appends the due point. Called with s.mu held.
func (s *Series) take() {
	pt := SeriesPoint{
		Time:              s.last,
		LiveJobs:          s.live,
		WaitingJobs:       s.waiting,
		RunningContainers: s.running,
		QueueDepth:        slices.Clone(s.depth),
	}
	if s.span > 0 {
		pt.EventsPerSec = float64(s.winEvents) / s.span
	}
	s.points = append(s.points, pt)
	s.start, s.winEvents, s.due = s.last, 0, false
}

// Points takes the due point, if any, and returns a copy of the points in
// the order they were taken.
func (s *Series) Points() []SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.due {
		s.take()
	}
	return slices.Clone(s.points)
}

// Events returns the total probe events observed.
func (s *Series) Events() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// WriteCSV writes the points under the header
//
//	time,live_jobs,waiting_jobs,running_containers,events_per_sec,q0,...
//
// with one q column per queue level seen; a point taken before a level was
// first entered has 0 there.
func (s *Series) WriteCSV(w io.Writer) error {
	points := s.Points()
	levels := 0
	if len(points) > 0 {
		levels = len(points[len(points)-1].QueueDepth)
	}
	buf := []byte("time,live_jobs,waiting_jobs,running_containers,events_per_sec")
	for q := range levels {
		buf = append(append(buf, ",q"...), strconv.Itoa(q)...)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, pt := range points {
		buf = strconv.AppendFloat(buf[:0], pt.Time, 'g', -1, 64)
		for _, n := range []int32{pt.LiveJobs, pt.WaitingJobs, pt.RunningContainers} {
			buf = strconv.AppendInt(append(buf, ','), int64(n), 10)
		}
		buf = strconv.AppendFloat(append(buf, ','), pt.EventsPerSec, 'g', -1, 64)
		for q := range levels {
			var d int32
			if q < len(pt.QueueDepth) {
				d = pt.QueueDepth[q]
			}
			buf = strconv.AppendInt(append(buf, ','), int64(d), 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
