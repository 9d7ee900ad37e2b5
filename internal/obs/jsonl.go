package obs

import (
	"bufio"
	"io"
	"strconv"
)

// JSONL is a Probe sink that writes one JSON object per event, in emission
// order, with a fixed field order per event type. Field values are scalars
// formatted with strconv (shortest round-trip floats), so the byte stream
// for a given run is deterministic — the golden-file and concurrency tests
// rely on that.
//
// JSONL buffers internally; call Flush when the run completes. It is not
// safe for concurrent emitters — attach one JSONL sink per run.
type JSONL struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w), buf: make([]byte, 0, 128)}
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

func (j *JSONL) intField(key string, v int) {
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

func (j *JSONL) JobSubmitted(now float64, job int) {
	j.line("job-submit", now)
	j.intField("job", job)
	j.end()
}

func (j *JSONL) JobAdmitted(now float64, job int, waited float64) {
	j.line("job-admit", now)
	j.intField("job", job)
	j.floatField("wait", waited)
	j.end()
}

func (j *JSONL) JobStarted(now float64, job int) {
	j.line("job-start", now)
	j.intField("job", job)
	j.end()
}

func (j *JSONL) StageDone(now float64, job, stage int) {
	j.line("stage-done", now)
	j.intField("job", job)
	j.intField("stage", stage)
	j.end()
}

func (j *JSONL) JobDone(now float64, job int, response float64) {
	j.line("job-done", now)
	j.intField("job", job)
	j.floatField("response", response)
	j.end()
}

func (j *JSONL) TaskStart(now float64, job, stage, task, containers int, speculative bool) {
	j.line("task-start", now)
	j.intField("job", job)
	j.intField("stage", stage)
	j.intField("task", task)
	j.intField("containers", containers)
	j.boolField("spec", speculative)
	j.end()
}

func (j *JSONL) TaskDone(now float64, job, stage, task int, start float64, speculative bool) {
	j.line("task-done", now)
	j.intField("job", job)
	j.intField("stage", stage)
	j.intField("task", task)
	j.floatField("start", start)
	j.boolField("spec", speculative)
	j.end()
}

func (j *JSONL) TaskFail(now float64, job, stage, task int, start float64) {
	j.line("task-fail", now)
	j.intField("job", job)
	j.intField("stage", stage)
	j.intField("task", task)
	j.floatField("start", start)
	j.end()
}

func (j *JSONL) QueueEnter(now float64, job, queue int) {
	j.line("queue-enter", now)
	j.intField("job", job)
	j.intField("queue", queue)
	j.end()
}

func (j *JSONL) QueueDemote(now float64, job, from, to int, attained float64) {
	j.line("queue-demote", now)
	j.intField("job", job)
	j.intField("from", from)
	j.intField("to", to)
	j.floatField("attained", attained)
	j.end()
}

func (j *JSONL) QueueExit(now float64, job, queue int) {
	j.line("queue-exit", now)
	j.intField("job", job)
	j.intField("queue", queue)
	j.end()
}

func (j *JSONL) ThresholdRefit(now, first, step float64) {
	j.line("refit", now)
	j.floatField("first", first)
	j.floatField("step", step)
	j.end()
}

func (j *JSONL) RoundExecuted(now float64, jobs int) {
	j.line("round-exec", now)
	j.intField("jobs", jobs)
	j.end()
}

func (j *JSONL) RoundSkipped(now float64, observed bool) {
	j.line("round-skip", now)
	j.boolField("observed", observed)
	j.end()
}

// ArenaReuse logs the arena dimensions but deliberately not the reused
// flag: whether a run draws a pooled arena or a fresh one depends on
// process-global sync.Pool state (what other runs finished first), and the
// JSONL log must be byte-deterministic for a given seeded run. Counters
// still aggregate the flag.
func (j *JSONL) ArenaReuse(jobs, tasks int, _ bool) {
	j.line("arena", 0)
	j.intField("jobs", jobs)
	j.intField("tasks", tasks)
	j.end()
}

// SlabStats logs the per-run free-list counts. All three are functions of
// the simulated run alone (not of pool state shared across runs), so the
// event is byte-deterministic for a given seeded run.
func (j *JSONL) SlabStats(now float64, live, peak, recycled int) {
	j.line("slab", now)
	j.intField("live", live)
	j.intField("peak", peak)
	j.intField("recycled", recycled)
	j.end()
}
