package trace

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
)

func TestFacebookShape(t *testing.T) {
	cfg := DefaultFacebookConfig()
	cfg.Jobs = 5000 // smaller for test speed; same machinery
	specs, err := Facebook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 5000 {
		t.Fatalf("generated %d jobs, want 5000", len(specs))
	}
	var sum, maxSize float64
	prev := -1.0
	for _, s := range specs {
		if s.Size <= 0 || s.Size > cfg.MaxSize+1e-9 {
			t.Fatalf("size %v out of (0, %v]", s.Size, cfg.MaxSize)
		}
		if s.Width < 1 || s.Width > cfg.Capacity {
			t.Fatalf("width %v out of [1, %v]", s.Width, cfg.Capacity)
		}
		if s.Arrival < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = s.Arrival
		if s.Priority < 1 || s.Priority > 5 {
			t.Fatalf("priority %d out of [1,5]", s.Priority)
		}
		sum += s.Size
		if s.Size > maxSize {
			maxSize = s.Size
		}
	}
	mean := sum / float64(len(specs))
	if math.Abs(mean-cfg.MeanSize) > cfg.MeanSize*0.15 {
		t.Errorf("mean size = %v, want ~%v", mean, cfg.MeanSize)
	}
	// Heavy tail: the largest job dwarfs the mean.
	if maxSize < 20*mean {
		t.Errorf("max size %v not heavy-tailed relative to mean %v", maxSize, mean)
	}
	// Median far below mean (right skew).
	sizes := make([]float64, len(specs))
	for i, s := range specs {
		sizes[i] = s.Size
	}
	sort.Float64s(sizes)
	if median := sizes[len(sizes)/2]; median > mean/2 {
		t.Errorf("median %v not well below mean %v: distribution not skewed", median, mean)
	}
}

func TestFacebookLoad(t *testing.T) {
	cfg := DefaultFacebookConfig()
	cfg.Jobs = 20000
	specs, err := Facebook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var totalSize float64
	for _, s := range specs {
		totalSize += s.Size
	}
	horizon := specs[len(specs)-1].Arrival
	load := totalSize / (horizon * cfg.Capacity)
	if math.Abs(load-cfg.Load) > 0.08 {
		t.Errorf("realized load = %v, want ~%v", load, cfg.Load)
	}
}

func TestFacebookLargeJobsAreWide(t *testing.T) {
	cfg := DefaultFacebookConfig()
	cfg.Jobs = 5000
	specs, err := Facebook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Size >= 100 && s.Width < cfg.Capacity {
			t.Fatalf("job of size %v has width %v; large jobs should span the cluster", s.Size, s.Width)
		}
	}
}

func TestFacebookDeterministic(t *testing.T) {
	cfg := DefaultFacebookConfig()
	cfg.Jobs = 500
	a, err := Facebook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Facebook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
	cfg.Seed = 99
	c, err := Facebook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Error("different seeds produced identical traces")
	}
}

func TestFacebookValidation(t *testing.T) {
	mutations := []func(*FacebookConfig){
		func(c *FacebookConfig) { c.Jobs = 0 },
		func(c *FacebookConfig) { c.Load = 0 },
		func(c *FacebookConfig) { c.Load = 3 },
		func(c *FacebookConfig) { c.Capacity = 0 },
		func(c *FacebookConfig) { c.MeanSize = 0 },
		func(c *FacebookConfig) { c.Sigma = -1 },
		func(c *FacebookConfig) { c.TailFraction = 1.5 },
		func(c *FacebookConfig) { c.TailFraction = 0.1; c.TailAlpha = 0 },
		func(c *FacebookConfig) { c.MaxSize = 0 },
		func(c *FacebookConfig) { c.WidthTaskDuration = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultFacebookConfig()
		mutate(&cfg)
		if _, err := Facebook(cfg); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}

	// NaN and +Inf fail every float check, with an error naming the field.
	for _, tc := range []struct {
		field  string
		mutate func(*FacebookConfig, float64)
	}{
		{"load", func(c *FacebookConfig, x float64) { c.Load = x }},
		{"capacity", func(c *FacebookConfig, x float64) { c.Capacity = x }},
		{"mean size", func(c *FacebookConfig, x float64) { c.MeanSize = x }},
		{"sigma", func(c *FacebookConfig, x float64) { c.Sigma = x }},
		{"tail fraction", func(c *FacebookConfig, x float64) { c.TailFraction = x }},
		{"tail alpha", func(c *FacebookConfig, x float64) { c.TailAlpha = x }},
		{"max size", func(c *FacebookConfig, x float64) { c.MaxSize = x }},
		{"width task duration", func(c *FacebookConfig, x float64) { c.WidthTaskDuration = x }},
	} {
		for _, x := range []float64{math.NaN(), math.Inf(1)} {
			cfg := DefaultFacebookConfig()
			tc.mutate(&cfg, x)
			if _, err := NewFacebookSource(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %v: got %v, want an error naming the field", tc.field, x, err)
			}
		}
	}
}

func TestUniform(t *testing.T) {
	specs, err := Uniform(100, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 100 {
		t.Fatalf("generated %d jobs, want 100", len(specs))
	}
	for _, s := range specs {
		if s.Size != 10000 || s.Width != 1 || s.Arrival != 0 {
			t.Fatalf("job %+v: want size 10000, width 1, arrival 0", s)
		}
	}
	if _, err := Uniform(0, 1, 1); err == nil {
		t.Error("expected error for zero jobs")
	}
	if _, err := Uniform(1, 0, 1); err == nil {
		t.Error("expected error for zero size")
	}
	for _, size := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := Uniform(1, size, 1); err == nil || !strings.Contains(err.Error(), "size") {
			t.Errorf("size %v: got %v, want an error naming the size", size, err)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := DefaultFacebookConfig()
	cfg.Jobs = 200
	specs, err := Facebook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, specs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(specs) {
		t.Fatalf("round trip returned %d jobs, want %d", len(back), len(specs))
	}
	for i := range specs {
		if specs[i] != back[i] {
			t.Fatalf("job %d changed in round trip:\n%+v\n%+v", i, specs[i], back[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "empty", give: ""},
		{name: "bad header", give: "a,b,c,d,e\n"},
		{name: "short header", give: "id,arrival\n"},
		{name: "bad id", give: "id,arrival,size,width,priority\nx,0,1,1,1\n"},
		{name: "bad arrival", give: "id,arrival,size,width,priority\n1,x,1,1,1\n"},
		{name: "bad size", give: "id,arrival,size,width,priority\n1,0,x,1,1\n"},
		{name: "bad width", give: "id,arrival,size,width,priority\n1,0,1,x,1\n"},
		{name: "bad priority", give: "id,arrival,size,width,priority\n1,0,1,1,x\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.give)); err == nil {
				t.Error("expected parse error")
			}
		})
	}
}
