package obs

import (
	"bufio"
	"io"
	"strconv"
)

// JSONL is a sink that writes one JSON object per event, in emission
// order, with a fixed field order per event type. Field values are scalars
// formatted with strconv (shortest round-trip floats), so the byte stream
// for a given run is deterministic — the golden-file and concurrency tests
// rely on that.
//
// JSONL buffers internally; call Flush when the run completes. It is not
// safe for concurrent emitters — attach one JSONL sink per run.
type JSONL struct {
	emitter
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{w: bufio.NewWriter(w), buf: make([]byte, 0, 128)}
	j.emitter = emitter{j}
	return j
}

// Flush drains the internal buffer and returns the first write error seen.
func (j *JSONL) Flush() error {
	if err := j.w.Flush(); j.err == nil {
		j.err = err
	}
	return j.err
}

// line starts an event object: {"ev":"<name>","t":<now>.
func (j *JSONL) line(ev string, now float64) {
	j.buf = append(j.buf[:0], `{"ev":"`...)
	j.buf = append(j.buf, ev...)
	j.buf = append(j.buf, `","t":`...)
	j.buf = strconv.AppendFloat(j.buf, now, 'g', -1, 64)
}

func (j *JSONL) intField(key string, v int32) {
	j.buf = append(j.buf, ',', '"')
	j.buf = append(j.buf, key...)
	j.buf = append(j.buf, '"', ':')
	j.buf = strconv.AppendInt(j.buf, int64(v), 10)
}

func (j *JSONL) floatField(key string, v float64) {
	j.buf = append(j.buf, ',', '"')
	j.buf = append(j.buf, key...)
	j.buf = append(j.buf, '"', ':')
	j.buf = strconv.AppendFloat(j.buf, v, 'g', -1, 64)
}

func (j *JSONL) boolField(key string, v bool) {
	j.buf = append(j.buf, ',', '"')
	j.buf = append(j.buf, key...)
	j.buf = append(j.buf, '"', ':')
	j.buf = strconv.AppendBool(j.buf, v)
}

func (j *JSONL) end() {
	j.buf = append(j.buf, '}', '\n')
	if _, err := j.w.Write(j.buf); err != nil && j.err == nil {
		j.err = err
	}
}

// Record implements Sink. ArenaReuse logs the arena dimensions but
// deliberately not the reused flag: whether a run draws a recycled arena or
// a fresh one depends on the process-global free list (what other runs
// finished first), and the log must be byte-deterministic for a given seeded
// run; Counters still aggregate the flag. Every other payload, SlabStats'
// free-list counts included, is a function of the simulated run alone.
func (j *JSONL) Record(ev Event) {
	switch ev.Kind {
	case KindJobSubmitted:
		j.line("job-submit", ev.T)
		j.intField("job", ev.A)
	case KindJobAdmitted:
		j.line("job-admit", ev.T)
		j.intField("job", ev.A)
		j.floatField("wait", ev.F)
	case KindJobStarted:
		j.line("job-start", ev.T)
		j.intField("job", ev.A)
	case KindStageDone:
		j.line("stage-done", ev.T)
		j.intField("job", ev.A)
		j.intField("stage", ev.B)
	case KindJobDone:
		j.line("job-done", ev.T)
		j.intField("job", ev.A)
		j.floatField("response", ev.F)
	case KindTaskStart:
		j.task("task-start", ev)
		j.intField("containers", ev.D)
		j.boolField("spec", ev.flag())
	case KindTaskDone:
		j.task("task-done", ev)
		j.floatField("start", ev.F)
		j.boolField("spec", ev.flag())
	case KindTaskFail:
		j.task("task-fail", ev)
		j.floatField("start", ev.F)
	case KindQueueEnter:
		j.line("queue-enter", ev.T)
		j.intField("job", ev.A)
		j.intField("queue", ev.B)
	case KindQueueDemote:
		j.line("queue-demote", ev.T)
		j.intField("job", ev.A)
		j.intField("from", ev.B)
		j.intField("to", ev.C)
		j.floatField("attained", ev.F)
	case KindQueueExit:
		j.line("queue-exit", ev.T)
		j.intField("job", ev.A)
		j.intField("queue", ev.B)
	case KindThresholdRefit:
		j.line("refit", ev.T)
		j.floatField("first", ev.F)
		j.floatField("step", ev.G)
	case KindRoundExecuted:
		j.line("round-exec", ev.T)
		j.intField("jobs", ev.A)
	case KindRoundSkipped:
		j.line("round-skip", ev.T)
		j.boolField("observed", ev.flag())
	case KindArenaReuse:
		j.line("arena", 0)
		j.intField("jobs", ev.A)
		j.intField("tasks", ev.B)
	case KindSlabStats:
		j.line("slab", ev.T)
		j.intField("live", ev.A)
		j.intField("peak", ev.B)
		j.intField("recycled", ev.C)
	default:
		return
	}
	j.end()
}

// task starts a task event: the line and its job, stage and task fields.
func (j *JSONL) task(name string, ev Event) {
	j.line(name, ev.T)
	j.intField("job", ev.A)
	j.intField("stage", ev.B)
	j.intField("task", ev.C)
}
