package engine_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
)

// orderSpecs builds a workload whose spec order, job-ID order and arrival
// order are three different permutations: IDs descend in non-contiguous steps
// along the slice, arrival slots are shuffled (two jobs per instant, so
// equal-time batches occur), and the mix has 2-container reduce tasks and
// diamond DAGs. Every benchmark workload has IDs ascending in arrival order,
// so the engine's "sort the running jobs by ID" and "insert an admitted job
// by its jobSeq position" branches run only here.
func orderSpecs(n int) []job.Spec {
	rng := rand.New(rand.NewSource(97))
	slot := rng.Perm(n)
	specs := make([]job.Spec, n)
	for i := range specs {
		id := 9000 - 37*i - i%5
		arrival := 1.5 * float64(slot[i]/2)
		switch i % 3 {
		case 0:
			specs[i] = uniformJob(id, arrival, 3+rng.Intn(14), 1+rng.Float64()*12)
		case 1:
			specs[i] = mapReduceJob(id, arrival, 1+rng.Intn(8), 1+rng.Float64()*9, 1+rng.Intn(3), 2+rng.Float64()*7)
		default:
			specs[i] = job.Spec{
				ID: id, Name: "diamond", Bin: 3, Priority: 1 + i%4, Arrival: arrival,
				Stages: []job.StageSpec{
					stage("root", 1+rng.Intn(4), 1+rng.Float64()*5),
					stage("left", 1+rng.Intn(3), 1+rng.Float64()*5, 0),
					stage("right", 1+rng.Intn(3), 1+rng.Float64()*5, 0),
					stage("join", 1, 1+rng.Float64()*4, 1, 2),
				},
			}
		}
	}
	return specs
}

// arrivalSorted returns a copy of specs stable-sorted by arrival, as a
// streamed run must be fed them.
func arrivalSorted(specs []job.Spec) []job.Spec {
	sorted := slices.Clone(specs)
	slices.SortStableFunc(sorted, func(a, b job.Spec) int {
		switch {
		case a.Arrival < b.Arrival:
			return -1
		case a.Arrival > b.Arrival:
			return 1
		}
		return 0
	})
	return sorted
}

// orderDigest folds every per-job outcome (in ascending job ID) and the run
// aggregates into one FNV-1a hash, floats by their bit patterns.
func orderDigest(jobs []engine.JobResult, makespan, utilization float64, peak int) uint64 {
	jobs = slices.Clone(jobs)
	slices.SortFunc(jobs, func(a, b engine.JobResult) int { return a.ID - b.ID })
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, j := range jobs {
		word(uint64(j.ID))
		for _, f := range []float64{j.Arrival, j.Admitted, j.Completed, j.ResponseTime, j.Service} {
			word(math.Float64bits(f))
		}
		word(uint64(j.Attempts))
		word(uint64(j.Failures))
		word(uint64(j.Speculative))
	}
	word(math.Float64bits(makespan))
	word(math.Float64bits(utilization))
	word(uint64(peak))
	return h.Sum64()
}

// orderGolden holds the digests the parent of the dense-round change (commit
// 4f2d9c3, map-based quantizer, jobSeq scans, byID lookups) produced for
// orderSpecs(60), recorded before any engine edit. Key: mode/policy/chaos.
var orderGolden = map[string]uint64{
	"run/FIFO/chaos=false":      0x4a66f55b2bf9e37b,
	"run/FIFO/chaos=true":       0x814299b3ee873d32,
	"run/FAIR/chaos=false":      0xa4c9a67cf5f8eb04,
	"run/FAIR/chaos=true":       0xee9b399926aa4de4,
	"run/LAS/chaos=false":       0x316b3e828bbe8115,
	"run/LAS/chaos=true":        0x9c7eb7eb7939a168,
	"run/LAS_MQ/chaos=false":    0x6908102c398125c4,
	"run/LAS_MQ/chaos=true":     0x40a72916d24fcfea,
	"stream/FIFO/chaos=false":   0xb4750b73ca4a6a4,
	"stream/FIFO/chaos=true":    0x7ce583e89c53d9b5,
	"stream/FAIR/chaos=false":   0xb34b4c5face1bad2,
	"stream/FAIR/chaos=true":    0x988c127ea1add8bd,
	"stream/LAS/chaos=false":    0x316b3e828bbe8115,
	"stream/LAS/chaos=true":     0xb051a07ad6171ecb,
	"stream/LAS_MQ/chaos=false": 0x6908102c398125c4,
	"stream/LAS_MQ/chaos=true":  0x2640dbbe66d5a38c,
}

// TestRoundOrderIndependentOfIDs pins the engine's results on a workload
// whose IDs are neither ascending nor in arrival or spec order — materialised
// (jobSeq = spec order, admission in arrival order) and streamed (arrival
// order, non-monotone IDs) × four policies × chaos on/off — to digests taken
// before the round was made dense, and to a FullReschedule run.
func TestRoundOrderIndependentOfIDs(t *testing.T) {
	specs := orderSpecs(60)
	sorted := arrivalSorted(specs)
	if slices.IsSortedFunc(sorted, func(a, b job.Spec) int { return a.ID - b.ID }) ||
		slices.IsSortedFunc(sorted, func(a, b job.Spec) int { return b.ID - a.ID }) {
		t.Fatal("arrival order is monotone in job ID: the workload no longer tests what it says")
	}
	mq := core.DefaultConfig()
	mq.FirstThreshold = 10

	run := func(mode, policy string, cfg engine.Config) uint64 {
		t.Helper()
		p, err := core.NewPolicy(policy, mq)
		if err != nil {
			t.Fatal(err)
		}
		if mode == "run" {
			res, err := engine.Run(specs, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return orderDigest(res.Jobs, res.Makespan, res.Utilization, res.PeakUsage)
		}
		var jobs []engine.JobResult
		res, err := engine.RunStream(engine.SliceSource(sorted), p, cfg, func(jr engine.JobResult) { jobs = append(jobs, jr) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Jobs != len(specs) {
			t.Fatalf("completed %d of %d jobs", res.Jobs, len(specs))
		}
		return orderDigest(jobs, res.Makespan, res.Utilization, res.PeakUsage)
	}

	for _, mode := range []string{"run", "stream"} {
		for _, policy := range []string{"FIFO", "FAIR", "LAS", "LAS_MQ"} {
			for _, chaos := range []bool{false, true} {
				key := fmt.Sprintf("%s/%s/chaos=%v", mode, policy, chaos)
				cfg := engine.DefaultConfig()
				cfg.Containers = 9
				cfg.MaxRunningJobs = 6 // binding: up to 60 jobs queue behind it
				cfg.Seed = 5
				if chaos {
					cfg.FailureProb = 0.1
					cfg.StragglerProb = 0.2
					cfg.StragglerFactor = 3
					cfg.Speculation = true
				}
				got := run(mode, policy, cfg)
				if want, ok := orderGolden[key]; !ok || got != want {
					t.Errorf("%s: digest %#x, recorded %#x", key, got, want)
				}
				cfg.FullReschedule = true
				if full := run(mode, policy, cfg); full != got {
					t.Errorf("%s: incremental digest %#x, FullReschedule %#x", key, got, full)
				}
			}
		}
	}
}
