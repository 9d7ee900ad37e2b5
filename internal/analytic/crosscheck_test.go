package analytic_test

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"lasmq/internal/analytic"
	"lasmq/internal/dist"
	"lasmq/internal/engine"
	"lasmq/internal/fluid"
	"lasmq/internal/sched"
	"lasmq/internal/stats"
	"lasmq/internal/workload"
)

// The crosscheck family drives the simulators with M/M/1 workloads
// (internal/workload.MM1Trace) and an M/G/1 workload with lognormal sizes
// (mg1Trace), and asserts the simulated steady-state mean response time
// agrees with the closed forms and numeric M/G/1 means in this package. The
// contract (documented in DESIGN.md):
//
//   - estimator: per-seed mean over the jobs after a 10% warmup deletion
//     (the queue starts empty; discarding the transient removes the
//     empty-start bias that would otherwise dominate at high load);
//   - tolerance: the half-width of the 95% CI across seeds plus a small
//     discretization allowance proportional to the analytic value — the CI
//     absorbs sampling noise, the allowance absorbs the residual transient
//     and the fluid completion epsilon;
//   - scale: job count and seed count are intentionally modest so the gate
//     runs in seconds (`make crosscheck`); LASMQ_CROSSCHECK_JOBS and
//     LASMQ_CROSSCHECK_SEEDS scale it up for a slow, sharper run.

// crosscheckJobs returns the per-seed trace length.
func crosscheckJobs(t *testing.T) int { return envInt(t, "LASMQ_CROSSCHECK_JOBS", 4000) }

// crosscheckSeeds returns the number of independent replications.
func crosscheckSeeds(t *testing.T) int { return envInt(t, "LASMQ_CROSSCHECK_SEEDS", 4) }

func envInt(t *testing.T, name string, def int) int {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		t.Fatalf("%s=%q: want a positive integer", name, v)
	}
	return n
}

// warmupMean averages responses after deleting the first 10% as warmup.
func warmupMean(responses []float64) float64 {
	w := len(responses) / 10
	tail := responses[w:]
	var sum float64
	for _, x := range tail {
		sum += x
	}
	return sum / float64(len(tail))
}

// mm1Trace is the M/M/1 workload at load rho: exponential sizes of mean 1.
func mm1Trace(t *testing.T, jobs int, rho float64, seed int64) []fluid.JobSpec {
	t.Helper()
	specs, err := workload.MM1Trace(workload.MM1Config{Jobs: jobs, Rho: rho, MeanSize: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// crosscheckFluid replicates a single-server run of trace across seeds on the
// fluid substrate at capacity 1 and asserts the replicated warmup-deleted
// mean agrees with the analytic value within CI95 plus the residual-bias
// allowance.
func crosscheckFluid(t *testing.T, mkPolicy func() sched.Scheduler, trace func(t *testing.T, jobs int, rho float64, seed int64) []fluid.JobSpec,
	jobs, seeds int, rho, want, biasFrac float64) {
	t.Helper()
	means := make([]float64, seeds)
	for s := range means {
		res, err := fluid.Run(trace(t, jobs, rho, int64(1000+s)), mkPolicy(), fluid.Config{Capacity: 1, TaskDuration: 1})
		if err != nil {
			t.Fatal(err)
		}
		means[s] = warmupMean(res.ResponseTimes())
	}
	rep := stats.Replicate(means)
	tol := rep.CI95 + biasFrac*want
	if diff := math.Abs(rep.Mean - want); diff > tol {
		t.Errorf("rho=%v: simulated mean %.4f vs analytic %.4f (|diff| %.4f > tol %.4f; CI95 %.4f, seeds %v)",
			rho, rep.Mean, want, diff, tol, rep.CI95, means)
	}
}

// biasFor returns the residual-bias allowance fraction for a load level: the
// queue's relaxation time grows like 1/(1-rho)^2, so the unconverged
// fraction of a fixed-length run grows with rho.
func biasFor(rho float64) float64 {
	switch {
	case rho >= 0.9:
		return 0.10
	case rho >= 0.7:
		return 0.05
	default:
		return 0.03
	}
}

// TestCrossCheckMM1Fluid is the gate: FIFO, PS, LAS and exact SRPT on the
// fluid substrate against their M/M/1 formulas at three load levels.
func TestCrossCheckMM1Fluid(t *testing.T) {
	mu := 1.0
	policies := []struct {
		name string
		mk   func() sched.Scheduler
		want func(lambda float64) float64
	}{
		{"FIFO", func() sched.Scheduler { return sched.NewFIFO() }, func(l float64) float64 { return analytic.MM1FCFS(l, mu) }},
		{"PS", func() sched.Scheduler { return sched.NewPS() }, func(l float64) float64 { return analytic.MM1PS(l, mu) }},
		{"LAS", func() sched.Scheduler { return sched.NewLAS() }, func(l float64) float64 { return analytic.MM1LAS(l, mu) }},
		{"SRPT", func() sched.Scheduler { return sched.NewSRPT() }, func(l float64) float64 {
			v, err := analytic.MM1SRPT(l, mu)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}},
	}
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		for _, p := range policies {
			p := p
			rho := rho
			t.Run(fmt.Sprintf("%s/rho=%.1f", p.name, rho), func(t *testing.T) {
				t.Parallel()
				crosscheckFluid(t, p.mk, mm1Trace, crosscheckJobs(t), crosscheckSeeds(t), rho, p.want(rho*mu), biasFor(rho))
			})
		}
	}
}

// mg1Trace is an M/G/1 workload at load rho built from internal/dist alone:
// Poisson arrivals, lognormal sizes of mean 1 and shape σ = 1 (E[S²] = e),
// width-1 jobs for a capacity-1 server.
func mg1Trace(t *testing.T, jobs int, rho float64, seed int64) []fluid.JobSpec {
	t.Helper()
	r := dist.New(seed)
	arrivals, err := dist.NewPoissonProcess(r, 1/rho)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]fluid.JobSpec, jobs)
	for i := range specs {
		specs[i] = fluid.JobSpec{ID: i + 1, Arrival: arrivals.Next(), Size: dist.LognormalMean(r, 1, 1), Width: 1, Priority: 1}
	}
	return specs
}

// TestCrossCheckMG1Fluid holds FIFO, PS, LAS and SRPT on the fluid substrate
// to the M/G/1 means of analytic.MG1 under lognormal sizes (mean 1, σ = 1) at
// two loads. Unlike M/M/1, where FCFS, PS and LAS share one mean, these
// sizes separate the disciplines — at rho = 0.5, FCFS ≈ 2.36, PS = 2 and
// LAS ≈ 1.8 — so a LAS that served jobs in arrival order fails here. The
// heavier tail converges more slowly than M/M/1: each seed runs five times
// the M/M/1 trace.
func TestCrossCheckMG1Fluid(t *testing.T) {
	sizes := dist.LognormalMeanService(1, 1)
	policies := []struct {
		name string
		mk   func() sched.Scheduler
		want func(m *analytic.MG1) float64
	}{
		{"FIFO", func() sched.Scheduler { return sched.NewFIFO() }, (*analytic.MG1).FCFS},
		{"PS", func() sched.Scheduler { return sched.NewPS() }, (*analytic.MG1).PS},
		{"LAS", func() sched.Scheduler { return sched.NewLAS() }, (*analytic.MG1).LAS},
		{"SRPT", func() sched.Scheduler { return sched.NewSRPT() }, (*analytic.MG1).SRPT},
	}
	for _, rho := range []float64{0.5, 0.8} {
		m, err := analytic.NewMG1(rho, sizes, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			t.Run(fmt.Sprintf("%s/rho=%.1f", p.name, rho), func(t *testing.T) {
				t.Parallel()
				crosscheckFluid(t, p.mk, mg1Trace, 5*crosscheckJobs(t), crosscheckSeeds(t), rho, p.want(m), biasFor(rho))
			})
		}
	}
}

// TestCrossCheckMM1Engine runs the same queue through the task-level engine:
// one container, one task per job. The engine never preempts a launched
// task, so FCFS is the one discipline it realizes exactly — FIFO against
// Pollaczek–Khinchine closes the loop on the second substrate.
func TestCrossCheckMM1Engine(t *testing.T) {
	jobs, seeds := crosscheckJobs(t), crosscheckSeeds(t)
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		rho := rho
		t.Run(fmt.Sprintf("FIFO/rho=%.1f", rho), func(t *testing.T) {
			t.Parallel()
			want := analytic.MM1FCFS(rho, 1)
			means := make([]float64, seeds)
			for s := range means {
				specs, err := workload.MM1Trace(workload.MM1Config{Jobs: jobs, Rho: rho, MeanSize: 1, Seed: int64(1000 + s)})
				if err != nil {
					t.Fatal(err)
				}
				res, err := engine.Run(workload.MM1Cluster(specs), sched.NewFIFO(), engine.Config{Containers: 1, StragglerFactor: 3})
				if err != nil {
					t.Fatal(err)
				}
				means[s] = warmupMean(res.ResponseTimes())
			}
			rep := stats.Replicate(means)
			tol := rep.CI95 + biasFor(rho)*want
			if diff := math.Abs(rep.Mean - want); diff > tol {
				t.Errorf("rho=%v: engine mean %.4f vs analytic %.4f (|diff| %.4f > tol %.4f; seeds %v)",
					rho, rep.Mean, want, diff, tol, means)
			}
		})
	}
}
