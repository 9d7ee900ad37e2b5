package obs

import (
	"reflect"
	"testing"
)

// TestQueueTimelineSnapshots drives a timeline with the events LAS_MQ and
// the driver emit: a sample holds the occupancy after its round's policy
// invocation (whose queue events follow RoundExecuted), never a later
// round's moves.
func TestQueueTimelineSnapshots(t *testing.T) {
	q := NewQueueTimeline(3, 0)
	q.RoundExecuted(0, 2)
	q.QueueEnter(0, 1, 0)
	q.QueueEnter(0, 2, 2) // a 5,000-unit job enters past both thresholds
	q.RoundSkipped(0.5, true)
	q.QueueDemote(0.5, 1, 0, 1, 150) // observation replay of the skipped round
	q.RoundExecuted(1, 2)
	q.QueueExit(1, 2, 2)

	want := []QueueSample{{Time: 0, Sizes: []int{1, 0, 1}}, {Time: 1, Sizes: []int{0, 1, 0}}}
	if got := q.Samples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	if got := q.Samples(); len(got) != 2 {
		t.Fatalf("a second Samples call took %d samples, want 2", len(got))
	}
}

// TestQueueTimelineSpacing: with a 10-unit spacing, rounds every unit over
// [0, 35) are sampled at 0, 10, 20 and 30.
func TestQueueTimelineSpacing(t *testing.T) {
	q := NewQueueTimeline(1, 10)
	q.QueueEnter(0, 1, 0)
	for now := 0.0; now < 35; now++ {
		q.RoundExecuted(now, 1)
	}
	samples := q.Samples()
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4: %v", len(samples), samples)
	}
	for i, s := range samples {
		if s.Time != float64(10*i) || s.Sizes[0] != 1 {
			t.Errorf("sample %d = %v, want time %d with the job in queue 0", i, s, 10*i)
		}
	}
}
