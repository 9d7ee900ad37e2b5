package mapreduce

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"lasmq/internal/core"
	"lasmq/internal/sched"
)

func wordCountJob(id int, splits []string, reducers int) Job {
	return Job{
		ID: id, Name: "wordcount", Priority: 1,
		Splits: splits, Reducers: reducers,
		Map: WordCountMap, Reduce: WordCountReduce,
		MapSeconds: 5, ReduceSeconds: 5,
	}
}

// directWordCount computes the expected counts without the framework.
func directWordCount(splits []string) map[string]int {
	counts := make(map[string]int)
	for _, s := range splits {
		for _, w := range strings.Fields(s) {
			counts[w]++
		}
	}
	return counts
}

func TestWordCountCorrect(t *testing.T) {
	splits := SynthesizeText(12, 200, 50, 1)
	want := directWordCount(splits)

	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultClusterConfig(), mq, []Job{wordCountJob(1, splits, 4)})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[1]
	if len(out) != len(want) {
		t.Fatalf("output has %d words, want %d", len(out), len(want))
	}
	for word, count := range want {
		got, err := strconv.Atoi(out[word])
		if err != nil || got != count {
			t.Errorf("count[%s] = %q, want %d", word, out[word], count)
		}
	}
}

func TestWordCountSameOutputAcrossSchedulers(t *testing.T) {
	splits := SynthesizeText(8, 100, 30, 2)
	var outputs []Output
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewFIFO() },
		func() sched.Scheduler { return sched.NewFair() },
		func() sched.Scheduler {
			s, _ := core.New(core.DefaultConfig())
			return s
		},
	} {
		res, err := Run(DefaultClusterConfig(), mk(), []Job{wordCountJob(1, splits, 3)})
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, res.Outputs[1])
	}
	for i := 1; i < len(outputs); i++ {
		if len(outputs[i]) != len(outputs[0]) {
			t.Fatalf("scheduler %d produced %d words, scheduler 0 produced %d",
				i, len(outputs[i]), len(outputs[0]))
		}
		for k, v := range outputs[0] {
			if outputs[i][k] != v {
				t.Errorf("scheduler %d: count[%s] = %q, want %q", i, k, outputs[i][k], v)
			}
		}
	}
}

func TestInvertedIndex(t *testing.T) {
	splits := []string{
		"doc1\tthe quick fox",
		"doc2\tthe lazy dog",
		"doc3\tquick quick dog",
	}
	idx := Job{
		ID: 1, Name: "invertedindex", Priority: 1,
		Splits: splits, Reducers: 2,
		Map: InvertedIndexMap, Reduce: InvertedIndexReduce,
	}
	res, err := Run(DefaultClusterConfig(), sched.NewFIFO(), []Job{idx})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[1]
	wants := map[string]string{
		"the":   "doc1,doc2",
		"quick": "doc1,doc3",
		"dog":   "doc2,doc3",
		"fox":   "doc1",
		"lazy":  "doc2",
	}
	for word, want := range wants {
		if out[word] != want {
			t.Errorf("index[%s] = %q, want %q", word, out[word], want)
		}
	}
}

func TestGrep(t *testing.T) {
	splits := []string{
		"alpha beta\ngamma ERROR one",
		"delta\nERROR two\nepsilon",
		"nothing here",
	}
	grep := Job{
		ID: 1, Name: "grep", Priority: 1,
		Splits: splits, Reducers: 1,
		Map: GrepMap("ERROR"), Reduce: CountReduce,
	}
	res, err := Run(DefaultClusterConfig(), sched.NewFair(), []Job{grep})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[1]["ERROR"]; got != "2" {
		t.Errorf("grep count = %q, want 2", got)
	}
}

func TestMultipleJobsConcurrently(t *testing.T) {
	big := wordCountJob(1, SynthesizeText(24, 400, 60, 3), 4)
	small := wordCountJob(2, SynthesizeText(2, 50, 20, 4), 2)
	grep := Job{
		ID: 3, Name: "grep", Priority: 1,
		Splits: []string{"x ERROR y", "z"}, Reducers: 1,
		Map: GrepMap("ERROR"), Reduce: CountReduce,
	}
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultClusterConfig(), mq, []Job{big, small, grep})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(res.Reports))
	}
	for id, splits := range map[int][]string{1: big.Splits, 2: small.Splits} {
		want := directWordCount(splits)
		out := res.Outputs[id]
		if len(out) != len(want) {
			t.Errorf("job %d: %d words, want %d", id, len(out), len(want))
		}
	}
	if res.Outputs[3]["ERROR"] != "1" {
		t.Errorf("grep output = %v", res.Outputs[3])
	}
}

func TestRunValidation(t *testing.T) {
	good := wordCountJob(1, []string{"a b"}, 1)
	tests := []struct {
		name   string
		mutate func(*Job)
	}{
		{name: "no splits", mutate: func(j *Job) { j.Splits = nil }},
		{name: "no reducers", mutate: func(j *Job) { j.Reducers = 0 }},
		{name: "nil map", mutate: func(j *Job) { j.Map = nil }},
		{name: "nil reduce", mutate: func(j *Job) { j.Reduce = nil }},
		{name: "negative estimate", mutate: func(j *Job) { j.MapSeconds = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			j := good
			tt.mutate(&j)
			if _, err := Run(DefaultClusterConfig(), sched.NewFIFO(), []Job{j}); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if _, err := Run(DefaultClusterConfig(), sched.NewFIFO(), nil); err == nil {
		t.Error("expected error for no jobs")
	}
	if _, err := Run(DefaultClusterConfig(), sched.NewFIFO(), []Job{good, good}); err == nil {
		t.Error("expected error for duplicate IDs")
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// The map task outlasts the deadline however the scheduler runs it.
	slow := Job{
		ID: 1, Name: "slow", Priority: 1,
		Splits: []string{"x"}, Reducers: 1,
		Map: func(split string, emit func(k, v string)) {
			<-ctx.Done()
			emit("k", "v")
		},
		Reduce: CountReduce,
	}
	if _, err := RunWithContext(ctx, DefaultClusterConfig(), sched.NewFIFO(), []Job{slow}); err == nil {
		t.Error("expected context deadline error")
	}
}

func TestSynthesizeTextDeterministic(t *testing.T) {
	a := SynthesizeText(4, 50, 20, 7)
	b := SynthesizeText(4, 50, 20, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split %d differs across identical seeds", i)
		}
	}
	c := SynthesizeText(4, 50, 20, 8)
	if a[0] == c[0] {
		t.Error("different seeds produced identical text")
	}
	words := strings.Fields(a[0])
	if len(words) != 50 {
		t.Errorf("split has %d words, want 50", len(words))
	}
}

func TestWordCountReduceSkipsGarbage(t *testing.T) {
	if got := WordCountReduce("w", []string{"1", "x", "2"}); got != "3" {
		t.Errorf("reduce = %q, want 3", got)
	}
}

func TestInvertedIndexMapNoTab(t *testing.T) {
	var pairs []kv
	InvertedIndexMap("no tab here", func(k, v string) {
		pairs = append(pairs, kv{k, v})
	})
	for _, p := range pairs {
		if p.value != "?" {
			t.Errorf("pair %v: want placeholder doc id", p)
		}
	}
	if len(pairs) != 3 {
		t.Errorf("got %d pairs, want 3 distinct words", len(pairs))
	}
}
