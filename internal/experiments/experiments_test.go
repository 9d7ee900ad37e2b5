package experiments

import (
	"math"
	"strings"
	"testing"
)

// smallOpts shrinks the traces so the full experiment machinery runs in test
// time; shape assertions are correspondingly loose.
func smallOpts() Options {
	return Options{Seed: 1, Repeats: 1, TraceJobs: 3000, UniformJobs: 400}
}

func TestOptionsDefaults(t *testing.T) {
	o, err := Options{}.Defaults()
	if err != nil || o.Repeats != 1 || o.TraceJobs != 24443 || o.UniformJobs != 10000 || o.Shards != 8 {
		t.Errorf("defaults = %+v, %v", o, err)
	}
	o, err = Options{Repeats: 3, TraceJobs: 5, UniformJobs: 6}.Defaults()
	if err != nil || o.Repeats != 3 || o.TraceJobs != 5 || o.UniformJobs != 6 {
		t.Errorf("explicit options overwritten: %+v, %v", o, err)
	}
}

// TestOptionsRejectNegative: a negative count is an error naming its field,
// from Defaults, from an experiment and from the registry; zero is the
// default.
func TestOptionsRejectNegative(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Options)
	}{
		{"Repeats", func(o *Options) { o.Repeats = -1 }},
		{"TraceJobs", func(o *Options) { o.TraceJobs = -1 }},
		{"UniformJobs", func(o *Options) { o.UniformJobs = -2 }},
		{"ScaleJobs", func(o *Options) { o.ScaleJobs = -1 }},
		{"Shards", func(o *Options) { o.Shards = -8 }},
		{"ShardWorkers", func(o *Options) { o.ShardWorkers = -1 }},
	} {
		o := smallOpts()
		tc.set(&o)
		_, err := o.Defaults()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Defaults error %v does not name the field", tc.field, err)
		}
		if _, err := Fig7Uniform(o); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Fig7Uniform error %v does not name the field", tc.field, err)
		}
		if _, err := SelectRegistry(o); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: SelectRegistry error %v does not name the field", tc.field, err)
		}
		if _, err := Registry(o)[0].Run(1); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: a registry entry's error %v does not name the field", tc.field, err)
		}
	}
}

func TestFig1MatchesPaper(t *testing.T) {
	res, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	wants := []struct {
		job     string
		las, mq float64
	}{
		{job: "A", las: 9, mq: 6},
		{job: "B", las: 8, mq: 8},
		{job: "C", las: 1, mq: 1},
	}
	for _, w := range wants {
		if math.Abs(res.LAS[w.job]-w.las) > 1e-2 {
			t.Errorf("LAS %s = %v, want %v", w.job, res.LAS[w.job], w.las)
		}
		if math.Abs(res.LASMQ[w.job]-w.mq) > 1e-2 {
			t.Errorf("LAS_MQ %s = %v, want %v", w.job, res.LASMQ[w.job], w.mq)
		}
	}
	if tbl := res.Table(); !strings.Contains(tbl, "A") || !strings.Contains(tbl, "6.00") {
		t.Errorf("table missing expected cells:\n%s", tbl)
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := Fig3(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cases
	// The full design (Case 4) must dominate every partial design and beat
	// Fair; each single feature must improve on the featureless Case 1.
	if c[3] <= 1 {
		t.Errorf("Case 4 = %v, want > 1 (beats Fair)", c[3])
	}
	for i := 0; i < 3; i++ {
		if c[3] < c[i] {
			t.Errorf("Case 4 (%v) not best: case %d = %v", c[3], i+1, c[i])
		}
	}
	if c[1] <= c[0] {
		t.Errorf("stage awareness did not improve: case2 %v vs case1 %v", c[1], c[0])
	}
	if c[2] <= c[0] {
		t.Errorf("in-queue ordering did not improve: case3 %v vs case1 %v", c[2], c[0])
	}
	if tbl := res.Table(); !strings.Contains(tbl, "Case 4") {
		t.Errorf("table missing Case 4:\n%s", tbl)
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Headline claims: LAS_MQ beats Fair (and everything else); FIFO is far
	// worse than Fair; FIFO's bins are comparatively flat while LAS_MQ's
	// grow steeply with bin size; FIFO beats LAS_MQ on the largest bin.
	mq := res.ByPolicy[PolicyLASMQ]
	fifo := res.ByPolicy[PolicyFIFO]
	if res.Normalized[PolicyLASMQ] < 1.2 {
		t.Errorf("LAS_MQ normalized = %v, want >= 1.2 (paper: ~1.67)", res.Normalized[PolicyLASMQ])
	}
	if res.Normalized[PolicyFIFO] > 0.8 {
		t.Errorf("FIFO normalized = %v, want well below 1", res.Normalized[PolicyFIFO])
	}
	for _, name := range PolicyOrder {
		if name == PolicyLASMQ {
			continue
		}
		if res.ByPolicy[name].MeanResponse < mq.MeanResponse {
			t.Errorf("%s mean %v beat LAS_MQ %v", name, res.ByPolicy[name].MeanResponse, mq.MeanResponse)
		}
	}
	if fifo.BinMeans[4] >= mq.BinMeans[4] {
		t.Errorf("FIFO bin4 %v should beat LAS_MQ bin4 %v (paper Fig. 5b)", fifo.BinMeans[4], mq.BinMeans[4])
	}
	// FIFO flat: bins 1-3 within 2x of each other.
	if fifo.BinMeans[1] > 2*fifo.BinMeans[3] || fifo.BinMeans[3] > 2*fifo.BinMeans[1] {
		t.Errorf("FIFO bins not flat: %v", fifo.BinMeans)
	}
	// LAS_MQ steep: bin 4 at least 5x bin 1.
	if mq.BinMeans[4] < 5*mq.BinMeans[1] {
		t.Errorf("LAS_MQ bins not steep: %v", mq.BinMeans)
	}
	// Slowdowns: LAS_MQ smallest mean slowdown.
	mqSlow := mean(mq.Slowdowns)
	for _, name := range []string{PolicyFair, PolicyFIFO} {
		if mean(res.ByPolicy[name].Slowdowns) < mqSlow {
			t.Errorf("%s mean slowdown beat LAS_MQ", name)
		}
	}
	if tbl := res.Table(); !strings.Contains(tbl, "LAS_MQ") {
		t.Errorf("table malformed:\n%s", tbl)
	}
	if tbl := res.SlowdownTable(); !strings.Contains(tbl, "p99") {
		t.Errorf("slowdown table malformed:\n%s", tbl)
	}
}

func TestFig6HigherLoadWidensGap(t *testing.T) {
	f5, err := Fig5(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f6, err := Fig6(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f6.Normalized[PolicyLASMQ] <= 1 {
		t.Errorf("LAS_MQ normalized at 50 s = %v, want > 1", f6.Normalized[PolicyLASMQ])
	}
	// The paper's central load claim: the advantage grows at higher load.
	if f6.Normalized[PolicyLASMQ] < f5.Normalized[PolicyLASMQ]*0.95 {
		t.Errorf("gap did not grow with load: 50 s %v vs 80 s %v",
			f6.Normalized[PolicyLASMQ], f5.Normalized[PolicyLASMQ])
	}
}

func TestFig7HeavyTailedShape(t *testing.T) {
	res, err := Fig7HeavyTailed(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: LAS best, LAS_MQ close behind, both beat Fair; FIFO collapses.
	if res.Mean[PolicyLAS] > res.Mean[PolicyFair] {
		t.Errorf("LAS (%v) should beat Fair (%v) on heavy tail", res.Mean[PolicyLAS], res.Mean[PolicyFair])
	}
	if res.Mean[PolicyLASMQ] > res.Mean[PolicyFair] {
		t.Errorf("LAS_MQ (%v) should beat Fair (%v)", res.Mean[PolicyLASMQ], res.Mean[PolicyFair])
	}
	if res.Normalized[PolicyFIFO] > 0.3 {
		t.Errorf("FIFO normalized = %v, want catastrophic (< 0.3)", res.Normalized[PolicyFIFO])
	}
	if tbl := res.Table(); !strings.Contains(tbl, "FIFO") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestFig7UniformShape(t *testing.T) {
	res, err := Fig7Uniform(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: LAS_MQ ~ FIFO at about half of Fair ~ LAS (processor sharing).
	if r := res.Mean[PolicyLASMQ] / res.Mean[PolicyFIFO]; r > 1.3 || r < 0.7 {
		t.Errorf("LAS_MQ/FIFO = %v, want ~1", r)
	}
	if r := res.Mean[PolicyFair] / res.Mean[PolicyLAS]; r > 1.2 || r < 0.8 {
		t.Errorf("FAIR/LAS = %v, want ~1 (both processor sharing)", r)
	}
	if r := res.Mean[PolicyFair] / res.Mean[PolicyLASMQ]; r < 1.6 {
		t.Errorf("FAIR/LAS_MQ = %v, want ~2 (paper Fig. 7b)", r)
	}
}

func TestFig8QueuesShape(t *testing.T) {
	res, err := Fig8Queues(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := res.Normalized
	for _, k := range []int{1, 2, 4, 5, 10} {
		if _, ok := n[k]; !ok {
			t.Fatalf("missing k=%d in %v", k, n)
		}
	}
	// More queues must help, and enough queues must beat Fair while one
	// queue must not.
	if n[10] < n[1] {
		t.Errorf("10 queues (%v) worse than 1 queue (%v)", n[10], n[1])
	}
	if n[1] >= 1 {
		t.Errorf("1 queue normalized = %v, want < 1 (paper: below Fair)", n[1])
	}
	if n[10] <= 1 {
		t.Errorf("10 queues normalized = %v, want > 1", n[10])
	}
	if tbl := res.Table(); !strings.Contains(tbl, "queues") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestFig8ThresholdsShape(t *testing.T) {
	res, err := Fig8Thresholds(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := res.Normalized
	// The paper's main message holds: performance is good and stable across
	// four decades of alpha0. Its sharp degradation at alpha0 = 10 does not
	// reproduce under our cross-queue weight normalization (the first queue
	// stays under-loaded; see EXPERIMENTS.md), so we assert stability plus
	// no improvement at alpha0 = 10.
	for _, alpha := range []float64{0.001, 0.01, 0.1, 1, 10} {
		if n[alpha] <= 1 {
			t.Errorf("alpha0=%v normalized = %v, want > 1", alpha, n[alpha])
		}
	}
	if n[10] > n[0.01]*1.1 {
		t.Errorf("alpha0=10 (%v) should not beat small thresholds (%v)", n[10], n[0.01])
	}
	if tbl := res.Table(); !strings.Contains(tbl, "alpha0") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestMotivationSJFError(t *testing.T) {
	res, err := MotivationSJFError(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Larger estimate error must not improve SJF, and big error should be
	// clearly worse than the oracle.
	if res.SJF[100] <= res.Oracle {
		t.Errorf("SJF with x100 error (%v) not worse than oracle (%v)", res.SJF[100], res.Oracle)
	}
	// LAS_MQ without any estimates should be competitive with moderate-error
	// SJF.
	if res.LASMQ > res.SJF[100] {
		t.Errorf("LAS_MQ (%v) worse than SJF with x100 error (%v)", res.LASMQ, res.SJF[100])
	}
	if tbl := res.Table(); !strings.Contains(tbl, "oracle") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestAblationWeights(t *testing.T) {
	res, err := AblationWeights(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, decay := range []float64{1, 1.5, 2, 4, 8} {
		v, ok := res[decay]
		if !ok {
			t.Fatalf("missing decay %v", decay)
		}
		if v <= 0 {
			t.Errorf("decay %v: normalized %v", decay, v)
		}
	}
}

func TestAdaptiveExperiment(t *testing.T) {
	res, err := Adaptive(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Refits == 0 {
		t.Error("adaptive scheduler never refitted")
	}
	if res.Adaptive >= res.Mistuned {
		t.Errorf("adaptive (%v) did not improve on mistuned (%v)", res.Adaptive, res.Mistuned)
	}
	if res.Tuned >= res.Mistuned {
		t.Errorf("tuned (%v) should beat mistuned (%v)", res.Tuned, res.Mistuned)
	}
	if tbl := res.Table(); !strings.Contains(tbl, "adaptive") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestTradeoffExperiment(t *testing.T) {
	points, err := Tradeoff(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("got %d points, want 5", len(points))
	}
	// theta = 0 (pure LAS_MQ) has the best mean; theta = 1 (pure Fair) the
	// best fairness.
	first, last := points[0], points[len(points)-1]
	if first.Theta != 0 || last.Theta != 1 {
		t.Fatalf("endpoints = %v, %v", first.Theta, last.Theta)
	}
	if first.MeanResponse >= last.MeanResponse {
		t.Errorf("LAS_MQ mean %v not better than Fair %v", first.MeanResponse, last.MeanResponse)
	}
	if first.JainIndex >= last.JainIndex {
		t.Errorf("Fair fairness %v not better than LAS_MQ %v", last.JainIndex, first.JainIndex)
	}
	if tbl := points.Table(); !strings.Contains(tbl, "theta") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestGeoExperiment(t *testing.T) {
	res, err := Geo(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean["LAS_MQ+aware"] >= res.Mean["FAIR+aware"] {
		t.Errorf("LAS_MQ (%v) not better than Fair (%v) in geo",
			res.Mean["LAS_MQ+aware"], res.Mean["FAIR+aware"])
	}
	if res.Mean["FIFO+aware"] <= res.Mean["FAIR+aware"] {
		t.Errorf("FIFO (%v) should be worst in geo (Fair %v)",
			res.Mean["FIFO+aware"], res.Mean["FAIR+aware"])
	}
	if tbl := res.Table(); !strings.Contains(tbl, "LAS_MQ+aware") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestTableIText(t *testing.T) {
	txt := TableIText()
	for _, want := range []string{"WordCount", "721", "100 GB", "TeraGen"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table I text missing %q:\n%s", want, txt)
		}
	}
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
