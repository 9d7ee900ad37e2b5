package geo

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/sched"
)

// localJob builds a job with n tasks, all data at one site.
func localJob(id int, arrival float64, n int, compute float64, site int, dataSize float64) JobSpec {
	tasks := make([]TaskSpec, n)
	for i := range tasks {
		tasks[i] = TaskSpec{Compute: compute, DataSite: site, DataSize: dataSize}
	}
	return JobSpec{ID: id, Name: "local", Arrival: arrival, Priority: 1, Tasks: tasks}
}

// spreadJob builds a job whose tasks' data is spread round-robin over sites.
func spreadJob(id int, arrival float64, n int, compute float64, sites int, dataSize float64) JobSpec {
	tasks := make([]TaskSpec, n)
	for i := range tasks {
		tasks[i] = TaskSpec{Compute: compute, DataSite: i % sites, DataSize: dataSize}
	}
	return JobSpec{ID: id, Name: "spread", Arrival: arrival, Priority: 1, Tasks: tasks}
}

func constantLinks() Config {
	cfg := DefaultConfig()
	cfg.BandwidthSigma = 0 // deterministic links
	return cfg
}

func TestValidation(t *testing.T) {
	good := []JobSpec{localJob(1, 0, 1, 1, 0, 1)}
	tests := []struct {
		name   string
		specs  []JobSpec
		mutate func(*Config)
	}{
		{name: "no sites", specs: good, mutate: func(c *Config) { c.SiteContainers = nil }},
		{name: "zero capacity", specs: good, mutate: func(c *Config) { c.SiteContainers = []int{0} }},
		{name: "zero bandwidth", specs: good, mutate: func(c *Config) { c.BaseBandwidth = 0 }},
		{name: "negative sigma", specs: good, mutate: func(c *Config) { c.BandwidthSigma = -1 }},
		{name: "zero resample", specs: good, mutate: func(c *Config) { c.ResampleInterval = 0 }},
		{name: "bad placement", specs: good, mutate: func(c *Config) { c.Placement = 0 }},
		{name: "no tasks", specs: []JobSpec{{ID: 1, Tasks: nil}}, mutate: nil},
		{name: "bad site", specs: []JobSpec{localJob(1, 0, 1, 1, 99, 1)}, mutate: nil},
		{name: "zero compute", specs: []JobSpec{localJob(1, 0, 1, 0, 0, 1)}, mutate: nil},
		{name: "negative data", specs: []JobSpec{localJob(1, 0, 1, 1, 0, -1)}, mutate: nil},
		{
			name:   "duplicate ids",
			specs:  []JobSpec{localJob(1, 0, 1, 1, 0, 1), localJob(1, 0, 1, 1, 0, 1)},
			mutate: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := constantLinks()
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			if _, err := Run(tt.specs, sched.NewFIFO(), cfg); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if _, err := Run(good, nil, constantLinks()); err == nil {
		t.Error("expected error for nil scheduler")
	}
}

// TestNonFiniteRejected: every range check was written `x <= 0` or `x < 0`,
// which NaN passes, and a NaN compute time, arrival or bandwidth came back as
// Completed: NaN with a nil error. Each is an error naming the field.
func TestNonFiniteRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	spec := func(mutate func(*JobSpec)) []JobSpec {
		s := localJob(1, 0, 2, 1, 0, 1)
		mutate(&s)
		return []JobSpec{s}
	}
	tests := []struct {
		name   string
		specs  []JobSpec
		mutate func(*Config)
		want   string
	}{
		{name: "NaN bandwidth", mutate: func(c *Config) { c.BaseBandwidth = nan }, want: "base bandwidth"},
		{name: "+Inf bandwidth", mutate: func(c *Config) { c.BaseBandwidth = inf }, want: "base bandwidth"},
		{name: "NaN sigma", mutate: func(c *Config) { c.BandwidthSigma = nan }, want: "bandwidth sigma"},
		{name: "+Inf sigma", mutate: func(c *Config) { c.BandwidthSigma = inf }, want: "bandwidth sigma"},
		{name: "NaN resample", mutate: func(c *Config) { c.ResampleInterval = nan }, want: "resample interval"},
		{name: "+Inf resample", mutate: func(c *Config) { c.ResampleInterval = inf }, want: "resample interval"},
		{name: "NaN arrival", specs: spec(func(s *JobSpec) { s.Arrival = nan }), want: "arrival"},
		{name: "+Inf arrival", specs: spec(func(s *JobSpec) { s.Arrival = inf }), want: "arrival"},
		{name: "NaN compute", specs: spec(func(s *JobSpec) { s.Tasks[1].Compute = nan }), want: "task 1 compute"},
		{name: "+Inf compute", specs: spec(func(s *JobSpec) { s.Tasks[1].Compute = inf }), want: "task 1 compute"},
		{name: "NaN data size", specs: spec(func(s *JobSpec) { s.Tasks[0].DataSize = nan }), want: "task 0 data size"},
		{name: "+Inf data size", specs: spec(func(s *JobSpec) { s.Tasks[0].DataSize = inf }), want: "task 0 data size"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			specs := tt.specs
			if specs == nil {
				specs = spec(func(*JobSpec) {})
			}
			res, err := Run(specs, sched.NewFIFO(), cfg)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %v (result %+v), want one naming %q", err, res, tt.want)
			}
		})
	}
}

func TestLocalExecutionNoTransfer(t *testing.T) {
	cfg := constantLinks()
	cfg.SiteContainers = []int{4, 4, 4}
	specs := []JobSpec{localJob(1, 0, 4, 10, 1, 100)}
	res, err := Run(specs, sched.NewFIFO(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if jr.ResponseTime != 10 {
		t.Errorf("response = %v, want 10 (all tasks local)", jr.ResponseTime)
	}
	if jr.RemoteTasks != 0 || jr.TransferTime != 0 {
		t.Errorf("local job transferred: %d remote tasks, %v transfer", jr.RemoteTasks, jr.TransferTime)
	}
}

func TestRemoteExecutionPaysTransfer(t *testing.T) {
	cfg := constantLinks()
	cfg.SiteContainers = []int{1, 1} // site 0 too small for the job
	cfg.BaseBandwidth = 2
	// 2 tasks, data at site 0, 10 data units each: one task must run at
	// site 1 and pay 10/2 = 5 seconds of transfer.
	specs := []JobSpec{localJob(1, 0, 2, 10, 0, 10)}
	res, err := Run(specs, sched.NewFIFO(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if jr.RemoteTasks != 1 {
		t.Fatalf("remote tasks = %d, want 1", jr.RemoteTasks)
	}
	if math.Abs(jr.TransferTime-5) > 1e-9 {
		t.Errorf("transfer time = %v, want 5", jr.TransferTime)
	}
	if math.Abs(jr.ResponseTime-15) > 1e-9 {
		t.Errorf("response = %v, want 15 (10 compute + 5 transfer on the critical path)", jr.ResponseTime)
	}
}

func TestLocalityAwareBeatsBlind(t *testing.T) {
	// Jobs whose tasks' data is spread across the sites: locality-aware
	// placement runs every task next to its data, while blind placement
	// fills site 0 first and pays WAN transfers.
	cfg := constantLinks()
	cfg.SiteContainers = []int{8, 8, 8}
	cfg.BaseBandwidth = 0.5 // slow WAN: transfers dominate (paper's premise)
	var specs []JobSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, spreadJob(i+1, float64(5*i), 9, 5, 3, 10))
	}
	run := func(p PlacementPolicy) float64 {
		c := cfg
		c.Placement = p
		res, err := Run(specs, sched.NewFair(), c)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanResponseTime()
	}
	aware := run(PlaceLocalityAware)
	blind := run(PlaceBlind)
	if aware >= blind {
		t.Errorf("locality-aware mean %v not better than blind %v on a slow WAN", aware, blind)
	}
	if blind < 2*aware {
		t.Errorf("blind (%v) should pay heavily versus aware (%v) when transfers dominate", blind, aware)
	}
}

func TestLASMQBeatsFairInGeo(t *testing.T) {
	// The paper's headline effect must survive the geo setting: small
	// queries overtake demoted big ones.
	// Deep contention (the regime where size-oblivious ordering matters, as
	// in the testbed experiments): a few huge queries and many small ones.
	cfg := constantLinks()
	cfg.SiteContainers = []int{6, 6, 6}
	r := rand.New(rand.NewSource(7))
	var specs []JobSpec
	arrival := 0.0
	for i := 1; i <= 30; i++ {
		arrival += r.ExpFloat64() * 8
		if i%5 == 0 {
			specs = append(specs, spreadJob(i, arrival, 400, 5, 3, 2))
		} else {
			specs = append(specs, spreadJob(i, arrival, 12, 3, 3, 5))
		}
	}
	run := func(p sched.Scheduler) float64 {
		res, err := Run(specs, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanResponseTime()
	}
	mqCfg := core.DefaultConfig()
	mqCfg.FirstThreshold = 10
	mq, err := core.New(mqCfg)
	if err != nil {
		t.Fatal(err)
	}
	mqMean := run(mq)
	fairMean := run(sched.NewFair())
	if mqMean >= fairMean {
		t.Errorf("LAS_MQ mean %v not better than Fair %v in the geo setting", mqMean, fairMean)
	}
}

func TestBandwidthVariabilityHurts(t *testing.T) {
	// With variable links, some transfers land on slow epochs: mean response
	// of a transfer-heavy workload should not improve.
	base := constantLinks()
	base.SiteContainers = []int{2, 2}
	base.BaseBandwidth = 1
	var specs []JobSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, localJob(i+1, float64(5*i), 4, 3, 0, 8))
	}
	run := func(sigma float64) float64 {
		c := base
		c.BandwidthSigma = sigma
		c.Seed = 3
		res, err := Run(specs, sched.NewFIFO(), c)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanResponseTime()
	}
	constant := run(0)
	variable := run(0.8)
	// Lognormal variability with the same mean stretches the slow transfers
	// more than it shrinks the fast ones (transfer time is convex in
	// bandwidth), so the variable case is worse on average.
	if variable < constant*0.95 {
		t.Errorf("variable links (%v) suspiciously better than constant (%v)", variable, constant)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 11
	var specs []JobSpec
	r := rand.New(rand.NewSource(1))
	for i := 1; i <= 12; i++ {
		specs = append(specs, spreadJob(i, float64(i)*3, 3+r.Intn(10), 2+r.Float64()*8, 3, r.Float64()*10))
	}
	a, err := Run(specs, sched.NewLAS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(specs, sched.NewLAS(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs across identical runs", i)
		}
	}
}

func TestLinksDeterministicAndVariable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	l := newLinks(&cfg)
	a := l.bandwidth(0, 1, 10)
	b := l.bandwidth(0, 1, 10)
	if a != b {
		t.Errorf("same link/epoch sampled differently: %v vs %v", a, b)
	}
	if l.bandwidth(0, 1, 10) == l.bandwidth(1, 0, 10) && l.bandwidth(0, 2, 10) == l.bandwidth(2, 0, 10) {
		t.Error("all link directions identical; per-link variation missing")
	}
	// Across epochs the bandwidth varies.
	varies := false
	for e := 0; e < 10; e++ {
		if l.bandwidth(0, 1, float64(e)*cfg.ResampleInterval) != a {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("bandwidth constant across epochs despite sigma > 0")
	}
}

func TestPlacementPolicyString(t *testing.T) {
	if got := PlaceLocalityAware.String(); got != "locality-aware" {
		t.Errorf("String = %q", got)
	}
	if got := PlaceBlind.String(); got != "blind" {
		t.Errorf("String = %q", got)
	}
	if got := PlacementPolicy(9).String(); !strings.Contains(got, "9") {
		t.Errorf("String = %q", got)
	}
}

func TestTotalCompute(t *testing.T) {
	j := localJob(1, 0, 3, 7, 0, 1)
	if got := j.TotalCompute(); got != 21 {
		t.Errorf("TotalCompute = %v, want 21", got)
	}
}
