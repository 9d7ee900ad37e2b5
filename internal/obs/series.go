package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// SeriesLevels is how many LAS_MQ queue levels a Series tracks depth for;
// deeper levels fold into the last slot. Fixed so sampling never allocates
// per point beyond the appended point itself.
const SeriesLevels = 8

// SeriesPoint is one windowed sample of the run's live state, taken on the
// first scheduling-round boundary at or past each window edge. Times are
// virtual; EventsPerSec is probe events per virtual second over the window.
type SeriesPoint struct {
	Time float64 `json:"time"`
	// Utilization is RunningTasks / Capacity when the Series was given a
	// capacity, else 0.
	Utilization  float64             `json:"utilization"`
	LiveJobs     int32               `json:"live_jobs"`
	RunningTasks int32               `json:"running_tasks"`
	QueueDepth   [SeriesLevels]int32 `json:"queue_depth"`
	EventsPerSec float64             `json:"events_per_sec"`
}

// Series is the windowed virtual-time series sink: utilization, queue depth
// per LAS_MQ level, live jobs and event rate, sampled on scheduling-round
// boundaries (RoundExecuted / RoundSkipped are the only moments a
// consistent cut of the run exists). Gauges update on every event; appending
// a point on a window flush amortizes against the window width. Like the
// other sinks it observes without mutating, so probed runs stay
// byte-identical.
//
// Running tasks count live attempts per task: a task's TaskDone ends every
// attempt of it (at least one), because the engine kills a finished task's
// speculative siblings without an event of their own.
type Series struct {
	emitter
	mu       sync.Mutex
	window   float64
	capacity float64
	// gauges, updated on every event
	live     int32
	running  int32
	attempts map[[3]int32]int32 // live attempts per (job, stage, task)
	depth    [SeriesLevels]int32
	// window accumulation
	events    uint64
	winStart  float64
	winEvents uint64
	started   bool
	points    []SeriesPoint
}

// NewSeries returns a Series sampling one point per window virtual seconds
// (window <= 0 defaults to 1). capacity is the cluster's container count
// for the utilization gauge; 0 disables it.
func NewSeries(window float64, capacity int) *Series {
	if window <= 0 {
		window = 1
	}
	s := &Series{window: window, capacity: float64(capacity), attempts: make(map[[3]int32]int32)}
	s.emitter = emitter{s}
	return s
}

func clampLevel(q int32) int32 {
	return min(max(q, 0), SeriesLevels-1)
}

// Record implements Sink.
func (s *Series) Record(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events++
	s.winEvents++
	task := [3]int32{ev.A, ev.B, ev.C}
	switch ev.Kind {
	case KindJobSubmitted:
		s.live++
	case KindJobDone:
		s.live--
	case KindTaskStart:
		s.running++
		s.attempts[task]++
	case KindTaskDone:
		s.running -= max(s.attempts[task], 1)
		delete(s.attempts, task)
	case KindTaskFail:
		s.running--
		if s.attempts[task]--; s.attempts[task] <= 0 {
			delete(s.attempts, task)
		}
	case KindQueueEnter:
		s.depth[clampLevel(ev.B)]++
	case KindQueueDemote:
		s.depth[clampLevel(ev.B)]--
		s.depth[clampLevel(ev.C)]++
	case KindQueueExit:
		s.depth[clampLevel(ev.B)]--
	case KindRoundExecuted, KindRoundSkipped:
		s.sample(ev.T)
	}
}

// sample flushes a point if now has crossed the current window's edge.
// Called with s.mu held, from round boundaries only.
func (s *Series) sample(now float64) {
	if !s.started {
		s.started = true
		s.winStart = now
		s.winEvents = 0
		return
	}
	if now < s.winStart+s.window {
		return
	}
	span := now - s.winStart
	pt := SeriesPoint{
		Time:         now,
		LiveJobs:     s.live,
		RunningTasks: s.running,
		QueueDepth:   s.depth,
		EventsPerSec: float64(s.winEvents) / span,
	}
	if s.capacity > 0 {
		pt.Utilization = float64(s.running) / s.capacity
	}
	s.points = append(s.points, pt)
	s.winStart = now
	s.winEvents = 0
}

// Points returns a copy of the sampled points in time order.
func (s *Series) Points() []SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SeriesPoint(nil), s.points...)
}

// Events returns the total probe events observed.
func (s *Series) Events() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// WriteCSV writes the sampled series with a fixed header:
//
//	time,utilization,live_jobs,running_tasks,events_per_sec,q0..q7
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, seriesHeader()); err != nil {
		return err
	}
	buf := make([]byte, 0, 128)
	for _, pt := range s.Points() {
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, pt.Time, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, pt.Utilization, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(pt.LiveJobs), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(pt.RunningTasks), 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, pt.EventsPerSec, 'g', -1, 64)
		for _, d := range pt.QueueDepth {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(d), 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func seriesHeader() string {
	h := "time,utilization,live_jobs,running_tasks,events_per_sec"
	for q := 0; q < SeriesLevels; q++ {
		h += fmt.Sprintf(",q%d", q)
	}
	return h + "\n"
}
