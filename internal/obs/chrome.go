package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// ChromeTrace is a sink that renders a run in the Chrome trace-event
// JSON format, loadable in chrome://tracing or Perfetto (ui.perfetto.dev).
// Jobs appear as threads of a "jobs" process: each job track carries one
// complete ("X") slice spanning the whole job with its task attempts nested
// inside, plus async ("b"/"e") spans for the job's residency in each LAS_MQ
// queue level. Scheduler-wide moments (threshold refits, slab statistics)
// appear as instant events on a separate "scheduler" process. All
// timestamps are virtual time scaled to microseconds.
//
// Events accumulate in memory; Export sorts them by timestamp (stably, so
// equal-time events keep emission order) and writes the JSON array.
type ChromeTrace struct {
	emitter
	events []chromeEvent
	seen   map[int]bool
	// open tracks queue spans begun but not yet ended, so Export can close
	// the spans of jobs still resident in a queue when the trace stops (the
	// scheduler only detects departures on its next round, which an ending
	// run never executes).
	open  map[[2]int]int // (job, queue) -> open depth
	maxTs float64
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	chromeJobsPid  = 0 // one thread per job
	chromeSchedPid = 1 // scheduler-wide instants
)

// NewChromeTrace returns an empty ChromeTrace sink.
func NewChromeTrace() *ChromeTrace {
	t := &ChromeTrace{seen: make(map[int]bool), open: make(map[[2]int]int)}
	t.emitter = emitter{t}
	t.meta(chromeJobsPid, 0, "process_name", "jobs")
	t.meta(chromeSchedPid, 0, "process_name", "scheduler")
	return t
}

func (t *ChromeTrace) meta(pid, tid int, key, name string) {
	t.events = append(t.events, chromeEvent{
		Name: key, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// track registers a named thread for a job the first time it is seen.
func (t *ChromeTrace) track(job int) {
	if !t.seen[job] {
		t.seen[job] = true
		t.meta(chromeJobsPid, job, "thread_name", "job "+itoa(job))
	}
}

func itoa(v int) string {
	// small positive IDs only; avoids pulling strconv into the hot path
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

const usec = 1e6 // virtual seconds -> trace microseconds

// Record implements Sink. Job and task events land on the job's track,
// queue moves open and close its residency spans, and refits and slab
// statistics are scheduler instants.
func (t *ChromeTrace) Record(ev Event) {
	job, ts := int(ev.A), ev.T*usec
	switch ev.Kind {
	case KindJobSubmitted:
		t.track(job)
		t.events = append(t.events, chromeEvent{
			Name: "submitted", Cat: "job", Ph: "i",
			Ts: ts, Pid: chromeJobsPid, Tid: job,
		})
	case KindJobDone:
		t.track(job)
		dur := ev.F * usec
		t.events = append(t.events, chromeEvent{
			Name: "job", Cat: "job", Ph: "X",
			Ts: (ev.T - ev.F) * usec, Dur: &dur,
			Pid: chromeJobsPid, Tid: job,
		})
	case KindTaskDone, KindTaskFail:
		t.track(job)
		dur := (ev.T - ev.F) * usec
		name := "s" + itoa(int(ev.B)) + "/t" + itoa(int(ev.C))
		var args map[string]any
		if ev.Kind == KindTaskFail {
			name += " FAIL"
			args = map[string]any{"failed": true}
		} else if ev.flag() {
			args = map[string]any{"speculative": true}
		}
		t.events = append(t.events, chromeEvent{
			Name: name, Cat: "task", Ph: "X",
			Ts: ev.F * usec, Dur: &dur, Pid: chromeJobsPid, Tid: job, Args: args,
		})
	case KindQueueEnter:
		t.track(job)
		t.span(ts, job, int(ev.B), "b")
	case KindQueueDemote:
		t.track(job)
		t.span(ts, job, int(ev.B), "e")
		t.span(ts, job, int(ev.C), "b")
	case KindQueueExit:
		t.track(job)
		t.span(ts, job, int(ev.B), "e")
	case KindThresholdRefit:
		t.events = append(t.events, chromeEvent{
			Name: "refit", Cat: "scheduler", Ph: "i",
			Ts: ts, Pid: chromeSchedPid, Tid: 0,
			Args: map[string]any{"first": ev.F, "step": ev.G},
		})
		return // a refit does not advance the end of the trace
	case KindSlabStats:
		t.events = append(t.events, chromeEvent{
			Name: "slab free-list", Cat: "scheduler", Ph: "i",
			Ts: ts, Pid: chromeSchedPid, Tid: 0,
			Args: map[string]any{"live": int(ev.A), "peak": int(ev.B), "recycled": int(ev.C)},
		})
	default:
		return
	}
	if ts > t.maxTs { // the end-of-trace high-water mark
		t.maxTs = ts
	}
}

// span emits one end of a queue-residency async span. Spans pair up by
// (cat, id, name), so each (job, queue level) stretch is its own span on
// the job's async row.
func (t *ChromeTrace) span(ts float64, job, queue int, ph string) {
	t.events = append(t.events, chromeEvent{
		Name: "Q" + itoa(queue), Cat: "queue", Ph: ph,
		Ts: ts, Pid: chromeJobsPid, Tid: job, ID: job + 1,
	})
	if ph == "b" {
		t.open[[2]int{job, queue}]++
	} else {
		t.open[[2]int{job, queue}]--
		if t.open[[2]int{job, queue}] == 0 {
			delete(t.open, [2]int{job, queue})
		}
	}
}

// Export closes the queue spans of jobs still resident at end of trace,
// sorts the collected events by timestamp (metadata first), and writes the
// Chrome trace JSON array.
func (t *ChromeTrace) Export(w io.Writer) error {
	openKeys := make([][2]int, 0, len(t.open))
	for k := range t.open {
		openKeys = append(openKeys, k)
	}
	sort.Slice(openKeys, func(i, k int) bool {
		if openKeys[i][0] != openKeys[k][0] {
			return openKeys[i][0] < openKeys[k][0]
		}
		return openKeys[i][1] < openKeys[k][1]
	})
	for _, k := range openKeys {
		for n := t.open[k]; n > 0; n-- {
			t.events = append(t.events, chromeEvent{
				Name: "Q" + itoa(k[1]), Cat: "queue", Ph: "e",
				Ts: t.maxTs, Pid: chromeJobsPid, Tid: k[0], ID: k[0] + 1,
			})
		}
		delete(t.open, k)
	}
	sort.SliceStable(t.events, func(i, k int) bool {
		a, b := t.events[i], t.events[k]
		if (a.Ph == "M") != (b.Ph == "M") {
			return a.Ph == "M"
		}
		return a.Ts < b.Ts
	})
	data, err := json.Marshal(t.events)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
