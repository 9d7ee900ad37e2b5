package workload

import (
	"math"
	"strings"
	"testing"

	"lasmq/internal/job"
)

func TestTableIComposition(t *testing.T) {
	types := TableI()
	if len(types) != 8 {
		t.Fatalf("TableI has %d types, want 8", len(types))
	}
	totalJobs := 0
	for _, jt := range types {
		totalJobs += jt.Count
	}
	if totalJobs != 100 {
		t.Errorf("total jobs = %d, want 100", totalJobs)
	}
	// Spot-check Table I numbers.
	wc := types[7]
	if wc.Name != "WordCount" || wc.Maps != 721 || wc.Reduces != 80 || wc.Count != 10 || wc.Bin != 4 {
		t.Errorf("WordCount row = %+v, mismatch with Table I", wc)
	}
	tg := types[0]
	if tg.Name != "TeraGen" || tg.Maps != 100 || tg.Reduces != 10 || tg.Count != 3 || tg.Bin != 1 {
		t.Errorf("TeraGen row = %+v, mismatch with Table I", tg)
	}
}

func TestGenerateShape(t *testing.T) {
	specs, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 100 {
		t.Fatalf("generated %d jobs, want 100", len(specs))
	}
	if err := job.ValidateAll(specs); err != nil {
		t.Fatalf("generated invalid workload: %v", err)
	}
	byName := make(map[string]int)
	prevArrival := -1.0
	for _, s := range specs {
		byName[s.Name]++
		if s.Arrival < prevArrival {
			t.Errorf("arrivals not sorted: %v after %v", s.Arrival, prevArrival)
		}
		prevArrival = s.Arrival
		if s.Priority < 1 || s.Priority > 5 {
			t.Errorf("priority %d out of [1,5]", s.Priority)
		}
		if len(s.Stages) != 2 {
			t.Errorf("job %s has %d stages, want 2", s.Name, len(s.Stages))
		}
		for _, task := range s.Stages[1].Tasks {
			if task.Containers != ReduceContainers {
				t.Errorf("reduce task uses %d containers, want %d", task.Containers, ReduceContainers)
			}
		}
	}
	for _, jt := range TableI() {
		if byName[jt.Name] != jt.Count {
			t.Errorf("%s count = %d, want %d", jt.Name, byName[jt.Name], jt.Count)
		}
	}
}

func TestGenerateTaskCountsMatchTableI(t *testing.T) {
	specs, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string][2]int)
	for _, jt := range TableI() {
		byName[jt.Name] = [2]int{jt.Maps, jt.Reduces}
	}
	for _, s := range specs {
		want := byName[s.Name]
		if len(s.Stages[0].Tasks) != want[0] {
			t.Errorf("%s has %d maps, want %d", s.Name, len(s.Stages[0].Tasks), want[0])
		}
		if len(s.Stages[1].Tasks) != want[1] {
			t.Errorf("%s has %d reduces, want %d", s.Name, len(s.Stages[1].Tasks), want[1])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Name != b[i].Name ||
			a[i].TotalService() != b[i].TotalService() {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
	cfg.Seed = 8
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Name != c[i].Name || a[i].Arrival != c[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateMeanArrivalInterval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeanInterval = 50
	var last float64
	const rounds = 40
	for seed := int64(0); seed < rounds; seed++ {
		cfg.Seed = seed
		specs, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last += specs[len(specs)-1].Arrival
	}
	mean := last / rounds / 100
	if math.Abs(mean-50) > 5 {
		t.Errorf("mean interval = %v, want ~50", mean)
	}
}

func TestSkewZeroGivesExactMeans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSigma = 0
	specs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	means := make(map[string][2]float64)
	for _, jt := range TableI() {
		means[jt.Name] = [2]float64{jt.MapMean, jt.ReduceMean}
	}
	for _, s := range specs {
		want := means[s.Name]
		if s.Stages[0].Tasks[0].Duration != want[0] {
			t.Errorf("%s map duration = %v, want %v", s.Name, s.Stages[0].Tasks[0].Duration, want[0])
		}
		if s.Stages[1].Tasks[0].Duration != want[1] {
			t.Errorf("%s reduce duration = %v, want %v", s.Name, s.Stages[1].Tasks[0].Duration, want[1])
		}
	}
}

func TestSizeHintPerturbation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SizeErrorFactor = 10
	specs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := 0
	for _, s := range specs {
		if s.SizeHint <= 0 {
			t.Fatalf("job %d has no size hint despite error factor", s.ID)
		}
		ratio := s.SizeHint / s.TotalService()
		if ratio < 0.1-1e-9 || ratio > 10+1e-9 {
			t.Errorf("hint ratio %v outside [0.1, 10]", ratio)
		}
		if math.Abs(ratio-1) > 0.01 {
			perturbed++
		}
	}
	if perturbed < 50 {
		t.Errorf("only %d/100 hints perturbed; expected most", perturbed)
	}

	cfg.SizeErrorFactor = 0
	specs, err = Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.SizeHint != 0 {
			t.Errorf("hint %v set despite factor 0 (want exact default)", s.SizeHint)
		}
	}
}

func TestLoadCalibration(t *testing.T) {
	// Both paper regimes are deeply congested (FIFO bins flat at thousands
	// of seconds: response dominated by the admission queue); the 50 s
	// interval must offer strictly more load than the 80 s one.
	l80 := Load(TableI(), 80, 120)
	if l80 < 1.5 || l80 > 2.8 {
		t.Errorf("load at 80 s = %v, want within [1.5, 2.8]", l80)
	}
	l50 := Load(TableI(), 50, 120)
	if l50 <= l80 {
		t.Errorf("load at 50 s = %v, want above the 80 s load %v", l50, l80)
	}
	if Load(nil, 80, 120) != 0 {
		t.Error("empty mix load should be 0")
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeanInterval = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for zero interval")
	}
	cfg = DefaultConfig()
	cfg.DurationSigma = -1
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for negative sigma")
	}
	bad := []JobType{{Name: "x", Maps: 0, Count: 1, MapMean: 1}}
	if _, err := GenerateMix(bad, DefaultConfig()); err == nil {
		t.Error("expected error for zero maps")
	}
	bad = []JobType{{Name: "x", Maps: 1, Reduces: 1, Count: 1, MapMean: 1, ReduceMean: 0}}
	if _, err := GenerateMix(bad, DefaultConfig()); err == nil {
		t.Error("expected error for zero reduce mean")
	}

	// Non-finite values fail too, with an error naming the field.
	nan, inf := math.NaN(), math.Inf(1)
	mix := func(mapMean, reduceMean float64) []JobType {
		return []JobType{{Name: "x", Maps: 2, Reduces: 1, Count: 3, MapMean: mapMean, ReduceMean: reduceMean}}
	}
	for _, tc := range []struct {
		name  string
		types []JobType
		cfg   func(*Config)
		field string
	}{
		{"NaN interval", TableI(), func(c *Config) { c.MeanInterval = nan }, "mean interval"},
		{"+Inf interval", TableI(), func(c *Config) { c.MeanInterval = inf }, "mean interval"},
		{"NaN sigma", TableI(), func(c *Config) { c.DurationSigma = nan }, "duration sigma"},
		{"+Inf sigma", TableI(), func(c *Config) { c.DurationSigma = inf }, "duration sigma"},
		{"NaN size error", TableI(), func(c *Config) { c.SizeErrorFactor = nan }, "size error factor"},
		{"+Inf size error", TableI(), func(c *Config) { c.SizeErrorFactor = inf }, "size error factor"},
		{"NaN map mean", mix(nan, 1), func(*Config) {}, "map mean"},
		{"+Inf map mean", mix(inf, 1), func(*Config) {}, "map mean"},
		{"NaN reduce mean", mix(1, nan), func(*Config) {}, "reduce mean"},
	} {
		cfg := DefaultConfig()
		tc.cfg(&cfg)
		if _, err := GenerateMix(tc.types, cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.field)
		}
	}
}
