// Package workload generates the paper's testbed workload (Table I): 100
// Hadoop jobs drawn from eight PUMA benchmark types across four input-size
// bins, arriving as a Poisson process. The map/reduce task counts and the
// per-type job counts are taken verbatim from Table I; per-task durations are
// a calibrated substitute for the PUMA datasets on the authors' hardware
// (documented in DESIGN.md), with lognormal skew per the paper's motivation
// that data skew is common in each stage.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"lasmq/internal/dist"
	"lasmq/internal/job"
)

// JobType describes one benchmark from Table I.
type JobType struct {
	Name        string
	Bin         int
	DatasetSize string  // as reported in Table I
	Maps        int     // number of map tasks
	Reduces     int     // number of reduce tasks
	Count       int     // jobs of this type in the 100-job mix
	MapMean     float64 // mean map task duration (seconds, calibrated)
	ReduceMean  float64 // mean reduce task duration (seconds, calibrated)
}

// TableI is the paper's workload composition. Task counts and job counts are
// verbatim; the duration means are calibrated so the testbed operates in the
// deeply congested regime the paper's measurements imply (FIFO response
// times flat at thousands of seconds across all bins because every job
// "waits for the completion of the 29 jobs before it"), with bin 4
// dominating total work the way 100 GB WordCount runs dominate 1 GB jobs.
func TableI() []JobType {
	return []JobType{
		{Name: "TeraGen", Bin: 1, DatasetSize: "1 GB", Maps: 100, Reduces: 10, Count: 3, MapMean: 12, ReduceMean: 15},
		{Name: "SelfJoin", Bin: 1, DatasetSize: "1 GB", Maps: 102, Reduces: 10, Count: 15, MapMean: 12, ReduceMean: 20},
		{Name: "Classification", Bin: 2, DatasetSize: "10 GB", Maps: 102, Reduces: 20, Count: 17, MapMean: 25, ReduceMean: 25},
		{Name: "HistogramMovies", Bin: 2, DatasetSize: "10 GB", Maps: 102, Reduces: 20, Count: 12, MapMean: 25, ReduceMean: 25},
		{Name: "HistogramRatings", Bin: 2, DatasetSize: "10 GB", Maps: 102, Reduces: 20, Count: 8, MapMean: 25, ReduceMean: 25},
		{Name: "SequenceCount", Bin: 3, DatasetSize: "30 GB", Maps: 234, Reduces: 60, Count: 16, MapMean: 38, ReduceMean: 45},
		{Name: "InvertedIndex", Bin: 3, DatasetSize: "30 GB", Maps: 234, Reduces: 60, Count: 19, MapMean: 35, ReduceMean: 40},
		{Name: "WordCount", Bin: 4, DatasetSize: "100 GB", Maps: 721, Reduces: 80, Count: 10, MapMean: 150, ReduceMean: 200},
	}
}

// ReduceContainers is the number of containers a reduce task occupies: the
// paper's implementation allocates two 2 GB containers per 4 GB reduce task.
const ReduceContainers = 2

// Config controls workload generation.
type Config struct {
	// MeanInterval is the mean Poisson inter-arrival time in seconds (the
	// paper evaluates 80 and 50).
	MeanInterval float64
	// DurationSigma is the lognormal shape of per-task duration skew
	// (0 disables skew). Default via DefaultConfig: 0.4.
	DurationSigma float64
	// SizeErrorFactor perturbs each job's SizeHint for the SJF/SRTF
	// motivation experiments: the hint becomes size * factor^u with u drawn
	// uniformly from [-1, 1]. Values <= 1 leave hints exact.
	SizeErrorFactor float64
	// Seed drives all randomness (arrivals, type order, priorities, skew).
	Seed int64
}

// DefaultConfig returns the Fig. 5 configuration (80-second mean interval).
func DefaultConfig() Config {
	return Config{MeanInterval: 80, DurationSigma: 0.4}
}

// Generate builds the 100-job Table I workload: the per-type jobs are
// shuffled into a random submission order, arrivals follow a Poisson process,
// and priorities are uniform in [1,5] (used only by the Fair baseline).
func Generate(cfg Config) ([]job.Spec, error) {
	return GenerateMix(TableI(), cfg)
}

// GenerateMix is Generate for a custom job mix.
func GenerateMix(types []JobType, cfg Config) ([]job.Spec, error) {
	// Every float check is written so that NaN fails it.
	if !(cfg.MeanInterval > 0) || math.IsInf(cfg.MeanInterval, 1) {
		return nil, fmt.Errorf("workload: mean interval must be finite and positive, got %v", cfg.MeanInterval)
	}
	if !(cfg.DurationSigma >= 0) || math.IsInf(cfg.DurationSigma, 1) {
		return nil, fmt.Errorf("workload: duration sigma must be finite and >= 0, got %v", cfg.DurationSigma)
	}
	if math.IsNaN(cfg.SizeErrorFactor) || math.IsInf(cfg.SizeErrorFactor, 0) {
		return nil, fmt.Errorf("workload: size error factor must be finite, got %v", cfg.SizeErrorFactor)
	}
	for _, jt := range types {
		if jt.Maps <= 0 || jt.Reduces < 0 || jt.Count < 0 {
			return nil, fmt.Errorf("workload: invalid type %q", jt.Name)
		}
		if !(jt.MapMean > 0) || math.IsInf(jt.MapMean, 1) {
			return nil, fmt.Errorf("workload: type %q: map mean must be finite and positive, got %v", jt.Name, jt.MapMean)
		}
		if jt.Reduces > 0 && (!(jt.ReduceMean > 0) || math.IsInf(jt.ReduceMean, 1)) {
			return nil, fmt.Errorf("workload: type %q: reduce mean must be finite and positive, got %v", jt.Name, jt.ReduceMean)
		}
	}

	r := dist.New(cfg.Seed)
	// Expand the mix and shuffle the submission order.
	var order []int // index into types
	for ti, jt := range types {
		for c := 0; c < jt.Count; c++ {
			order = append(order, ti)
		}
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	arrivals, err := dist.NewPoissonProcess(r, cfg.MeanInterval)
	if err != nil {
		return nil, err
	}

	// Each type's map and reduce duration distributions, built once.
	durations := make([][2]taskDurations, len(types))
	for ti, jt := range types {
		durations[ti] = [2]taskDurations{
			newTaskDurations(jt.MapMean, cfg.DurationSigma),
			newTaskDurations(jt.ReduceMean, cfg.DurationSigma),
		}
	}

	specs := make([]job.Spec, 0, len(order))
	for i, ti := range order {
		jt := types[ti]
		mapDur, reduceDur := &durations[ti][0], &durations[ti][1]
		spec := job.Spec{
			ID:       i + 1,
			Name:     jt.Name,
			Bin:      jt.Bin,
			Priority: dist.IntBetween(r, 1, 5),
			Arrival:  arrivals.Next(),
		}
		maps := make([]job.TaskSpec, jt.Maps)
		for m := range maps {
			maps[m] = job.TaskSpec{Duration: mapDur.draw(r), Containers: 1}
		}
		spec.Stages = append(spec.Stages, job.StageSpec{Name: "map", Tasks: maps})
		if jt.Reduces > 0 {
			reduces := make([]job.TaskSpec, jt.Reduces)
			for m := range reduces {
				reduces[m] = job.TaskSpec{
					Duration:   reduceDur.draw(r),
					Containers: ReduceContainers,
				}
			}
			spec.Stages = append(spec.Stages, job.StageSpec{Name: "reduce", Tasks: reduces})
		}
		if cfg.SizeErrorFactor > 1 {
			u := 2*r.Float64() - 1
			spec.SizeHint = spec.TotalService() * math.Pow(cfg.SizeErrorFactor, u)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// taskDurations draws skewed task durations with one mean: lognormal with
// shape sigma, or exactly the mean when sigma is zero.
type taskDurations struct {
	mean float64
	skew bool
	d    dist.LognormalMeanDist
}

func newTaskDurations(mean, sigma float64) taskDurations {
	return taskDurations{mean: mean, skew: sigma != 0, d: dist.NewLognormalMean(mean, sigma)}
}

func (t *taskDurations) draw(r *rand.Rand) float64 {
	if !t.skew {
		return t.mean
	}
	return t.d.Draw(r)
}

// TotalService returns the expected total service of the mix in
// container-seconds (using duration means), useful for load calculations.
func TotalService(types []JobType) float64 {
	var total float64
	for _, jt := range types {
		perJob := float64(jt.Maps)*jt.MapMean + float64(jt.Reduces)*jt.ReduceMean*ReduceContainers
		total += perJob * float64(jt.Count)
	}
	return total
}

// Load estimates the offered load of the mix: expected service arrival rate
// divided by cluster capacity.
func Load(types []JobType, meanInterval float64, containers int) float64 {
	jobs := 0
	for _, jt := range types {
		jobs += jt.Count
	}
	if jobs == 0 || meanInterval <= 0 || containers <= 0 {
		return 0
	}
	meanService := TotalService(types) / float64(jobs)
	return meanService / (meanInterval * float64(containers))
}
