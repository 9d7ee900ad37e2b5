package obs

import (
	"reflect"
	"strings"
	"testing"
)

// TestSeriesSampling drives a small synthetic run through the Series sink
// and checks the gauges, the deferred cut, windowing and the CSV shape.
func TestSeriesSampling(t *testing.T) {
	s := NewSeries(10)
	s.JobSubmitted(0, 1)
	s.JobSubmitted(0, 2)
	s.JobSubmitted(0, 3)
	s.JobAdmitted(0, 1, 0)
	s.JobAdmitted(0, 2, 0)
	s.RoundExecuted(0, 2) // opens the run: a point is due at t=0
	// The round's policy call and launches carry its time: the point holds them.
	s.QueueEnter(0, 1, 0)
	s.QueueEnter(0, 2, 0)
	s.TaskStart(0, 1, 0, 0, 1, false)
	s.TaskStart(0, 2, 1, 0, 2, false)
	s.QueueDemote(5, 1, 0, 1, 100) // a later time takes the point first
	s.RoundExecuted(5, 2)          // inside the window: no point
	s.TaskDone(12, 2, 1, 0, 0, false)
	s.JobDone(12, 2, 12)
	s.RoundExecuted(12, 1) // crosses the t=10 edge: a point is due
	s.QueueExit(12, 2, 0)
	want := []SeriesPoint{
		{Time: 0, LiveJobs: 3, WaitingJobs: 1, RunningContainers: 3, QueueDepth: []int32{2}},
		{Time: 12, LiveJobs: 2, WaitingJobs: 1, RunningContainers: 1, QueueDepth: []int32{0, 1},
			EventsPerSec: 0.5},
	}
	if got := s.Points(); !reflect.DeepEqual(got, want) {
		t.Fatalf("points = %+v, want %+v", got, want)
	}

	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	const csv = "time,live_jobs,waiting_jobs,running_containers,events_per_sec,q0,q1\n" +
		"0,3,1,3,0,2,0\n12,2,1,1,0.5,0,1\n"
	if sb.String() != csv {
		t.Fatalf("CSV = %q, want %q", sb.String(), csv)
	}
}

// queueTimeline returns each point's time and queue depths.
func queueTimeline(s *Series) (times []float64, depths [][]int32) {
	for _, pt := range s.Points() {
		times, depths = append(times, pt.Time), append(depths, pt.QueueDepth)
	}
	return times, depths
}

// TestQueueTimelineSnapshots drives a Series with the events LAS_MQ and the
// driver emit: a point holds the queue depths after its round's policy
// invocation (whose queue events follow RoundExecuted), never a later
// round's moves.
func TestQueueTimelineSnapshots(t *testing.T) {
	s := NewSeries(1)
	s.RoundExecuted(0, 2)
	s.QueueEnter(0, 1, 0)
	s.QueueEnter(0, 2, 2) // a 5,000-unit job enters past both thresholds
	s.RoundSkipped(0.5, true)
	s.QueueDemote(0.5, 1, 0, 1, 150) // observation replay of the skipped round
	s.RoundExecuted(1, 2)
	s.QueueExit(1, 2, 2)

	times, depths := queueTimeline(s)
	if want := [][]int32{{1, 0, 1}, {0, 1, 0}}; !reflect.DeepEqual(times, []float64{0, 1}) || !reflect.DeepEqual(depths, want) {
		t.Fatalf("points at %v with depths %v, want [0 1] with %v", times, depths, want)
	}
	if times, _ = queueTimeline(s); len(times) != 2 {
		t.Fatalf("a second Points call returned %d points, want 2", len(times))
	}
}

// TestQueueTimelineSpacing: with a 10-unit window, rounds every unit over
// [0, 35) give points at 0, 10, 20 and 30.
func TestQueueTimelineSpacing(t *testing.T) {
	s := NewSeries(10)
	s.QueueEnter(0, 1, 0)
	for now := 0.0; now < 35; now++ {
		s.RoundExecuted(now, 1)
	}
	times, depths := queueTimeline(s)
	if want := [][]int32{{1}, {1}, {1}, {1}}; !reflect.DeepEqual(times, []float64{0, 10, 20, 30}) || !reflect.DeepEqual(depths, want) {
		t.Fatalf("points at %v with depths %v, want [0 10 20 30] with the job in queue 0", times, depths)
	}
}

// TestSeriesCountsContainers: a 2-container task holds two containers per
// live attempt; a failure ends one attempt, its completion every attempt.
func TestSeriesCountsContainers(t *testing.T) {
	s := NewSeries(1)
	running := func(want int32) {
		t.Helper()
		if s.running != want {
			t.Fatalf("running containers = %d, want %d", s.running, want)
		}
	}
	s.TaskStart(0, 1, 1, 0, 2, false)
	s.TaskStart(1, 1, 1, 0, 2, true)
	running(4)
	s.TaskFail(2, 1, 1, 0, 0)
	running(2)
	s.TaskStart(3, 1, 1, 0, 2, false)
	s.TaskStart(3, 1, 0, 0, 1, false)
	running(5)
	s.TaskDone(4, 1, 1, 0, 3, false)
	running(1)
}

// TestSeriesKeepsEveryLevel: a job at level 9 gets a column of its own, and
// the levels below it theirs.
func TestSeriesKeepsEveryLevel(t *testing.T) {
	s := NewSeries(1)
	s.RoundExecuted(0, 1)
	s.QueueEnter(0, 1, 8)
	s.QueueDemote(0, 1, 8, 9, 1e9)
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "time,live_jobs,waiting_jobs,running_containers,events_per_sec,q0,q1,q2,q3,q4,q5,q6,q7,q8,q9\n" +
		"0,0,0,0,0,0,0,0,0,0,0,0,0,0,1\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

// TestSeriesRestartsPerRun: two runs through one Series give points from
// both; the second run's times restart, and its queues start empty although
// the first run's last exit never fired (its policy was not called again).
func TestSeriesRestartsPerRun(t *testing.T) {
	s := NewSeries(10)
	for run := range 2 {
		s.JobSubmitted(0, 1)
		s.JobAdmitted(0, 1, 0)
		s.RoundExecuted(0, 1)
		s.QueueEnter(0, 1, run)
		s.RoundExecuted(30, 1)
		s.JobDone(40, 1, 40)
		s.RoundSkipped(40, true)
	}
	pts := s.Points()
	var times []float64
	for _, pt := range pts {
		times = append(times, pt.Time)
	}
	if want := []float64{0, 30, 40, 0, 30, 40}; !reflect.DeepEqual(times, want) {
		t.Fatalf("point times = %v, want %v", times, want)
	}
	if d := pts[3].QueueDepth; !reflect.DeepEqual(d, []int32{0, 1}) {
		t.Fatalf("second run's first depths = %v, want [0 1]", d)
	}
	if pts[3].EventsPerSec != 0 || pts[4].EventsPerSec != 1.0/30 {
		t.Fatalf("events/sec %g, %g; want 0 on a run's first point, then 1/30", pts[3].EventsPerSec, pts[4].EventsPerSec)
	}
}
