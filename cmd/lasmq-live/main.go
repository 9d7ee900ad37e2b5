// Command lasmq-live runs a scaled-down Table I workload on the live
// mini-YARN cluster (real goroutines and scaled wall-clock time, not a
// simulation) under a chosen scheduling policy.
//
// Usage:
//
//	lasmq-live [-scheduler lasmq|las|fair|fifo|sjf|srtf] [-jobs 20] [-seed 1]
//	           [-nodes 4] [-containers-per-node 30] [-max-running 30]
//	           [-time-scale 500us] [-interval 30] [-debug-addr :8090]
//
// The ResourceManager's probe is a lock-free flight-recorder ring
// (obs.Ring): the scheduling goroutine records fixed-size events with no
// locks and no allocation, and a consumer goroutine drains them into the
// aggregating sinks (counters, histograms, round-sampled series) off the
// hot path. -debug-addr serves that telemetry while the workload runs:
//
//	/metrics          Prometheus text exposition (counters + histograms)
//	/debug/schedvars  counter snapshot as JSON, expvar-style
//	/debug/schedhist  latency histograms (quantiles + buckets) as JSON
//
// The same counters print as a summary when the run drains; the HTTP
// server is shut down cleanly (listener closed, in-flight scrapes drained)
// before the process exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"lasmq/internal/cli"
	"lasmq/internal/core"
	"lasmq/internal/dist"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/stats"
	"lasmq/internal/workload"
	"lasmq/internal/yarn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lasmq-live:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		schedName  = flag.String("scheduler", "lasmq", "scheduling policy: "+cli.SchedulerNames())
		jobs       = flag.Int("jobs", 20, "number of jobs to submit")
		seed       = flag.Int64("seed", 1, "workload seed")
		nodes      = flag.Int("nodes", 4, "node managers")
		perNode    = flag.Int("containers-per-node", 30, "containers per node")
		maxRunning = flag.Int("max-running", 30, "admission limit (0 = unlimited)")
		timeScale  = flag.Duration("time-scale", 500*time.Microsecond, "wall time per cluster second")
		interval   = flag.Float64("interval", 30, "mean arrival interval in cluster seconds")
		timeout    = flag.Duration("timeout", 5*time.Minute, "drain timeout")
		debugAddr  = flag.String("debug-addr", "", "serve live telemetry counters as JSON on http://ADDR/debug/schedvars")
	)
	flag.Parse()

	policy, err := cli.BuildScheduler(*schedName, core.DefaultConfig())
	if err != nil {
		return err
	}
	// The ResourceManager emits all probe events from its single scheduling
	// goroutine, so a single-producer flight-recorder ring can replace the
	// mutex-guarded sinks on the hot path; the recorder goroutine is the one
	// consumer, folding events into the aggregating sinks.
	ring := obs.NewRing(1 << 16)
	counters := obs.NewCounters()
	hists := obs.NewHistograms()
	series := obs.NewSeries(10, *nodes**perNode)
	rec := startRecorder(ring, obs.Multi(counters, hists, series))
	cfg := yarn.Config{
		Nodes:             *nodes,
		ContainersPerNode: *perNode,
		MaxRunningJobs:    *maxRunning,
		TimeScale:         *timeScale,
		HeartbeatInterval: 10 * *timeScale,
		Probe:             ring,
	}
	var stopDebug func() error
	if *debugAddr != "" {
		stopDebug, err = serveDebug(*debugAddr, counters, hists)
		if err != nil {
			return err
		}
	}
	cluster, err := yarn.New(cfg, policy)
	if err != nil {
		return err
	}
	cluster.Start()
	defer cluster.Shutdown()

	// Draw a downsized Table I-style mix: scale task counts so the live run
	// finishes quickly while keeping the bin structure.
	specs, err := liveWorkload(*jobs, *seed)
	if err != nil {
		return err
	}
	r := dist.New(*seed)
	arrivals, err := dist.NewPoissonProcess(r, *interval)
	if err != nil {
		return err
	}

	start := time.Now()
	prev := 0.0
	for i := range specs {
		next := arrivals.Next()
		gap := time.Duration((next - prev) * float64(*timeScale))
		prev = next
		time.Sleep(gap)
		if err := cluster.Submit(specs[i]); err != nil {
			return err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	reports, err := cluster.Drain(ctx)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	// The run is over: fold the ring's remaining events into the sinks so
	// the summary below is complete, then retire the debug server — closing
	// its listener and draining in-flight scrapes — before reporting.
	lost := rec.stop()
	if stopDebug != nil {
		if err := stopDebug(); err != nil {
			return fmt.Errorf("debug server shutdown: %w", err)
		}
	}

	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	responses := make([]float64, 0, len(reports))
	bins := make([]int, 0, len(reports))
	for _, rep := range reports {
		responses = append(responses, rep.Response)
		bins = append(bins, rep.Bin)
	}
	fmt.Printf("scheduler=%s jobs=%d cluster=%dx%d wall=%v\n",
		policy.Name(), len(reports), *nodes, *perNode, wall.Round(time.Millisecond))
	cli.PrintSummary(os.Stdout, "response times (cluster seconds)", responses)
	if err := cli.PrintBinMeans(os.Stdout, bins, responses); err != nil {
		return err
	}
	fmt.Printf("jain fairness of responses: %.2f\n", stats.JainIndex(responses))
	fmt.Println("telemetry:")
	snap := counters.Snapshot()
	snap.WriteSummary(os.Stdout)
	if resp, ok := hists.Histogram(obs.HistResponse); ok && resp.Count() > 0 {
		s := resp.Snapshot()
		fmt.Printf("  response hist  p50 %.4g  p90 %.4g  p99 %.4g (n=%d)\n", s.P50, s.P90, s.P99, s.Count)
	}
	fmt.Printf("  flight recorder %d event(s) recorded, %d lost\n", ring.Recorded(), lost)
	return nil
}

// recorder is the flight-recorder ring's single consumer: a goroutine that
// periodically drains packed events into the aggregating sinks, keeping all
// mutex-taking sink work off the ResourceManager's scheduling goroutine.
type recorder struct {
	ring *obs.Ring
	sink obs.Sink
	quit chan struct{}
	done chan struct{}
	lost uint64
}

func startRecorder(ring *obs.Ring, sink obs.Sink) *recorder {
	rec := &recorder{ring: ring, sink: sink, quit: make(chan struct{}), done: make(chan struct{})}
	go rec.loop()
	return rec
}

func (rec *recorder) loop() {
	defer close(rec.done)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-rec.quit:
			_, lost := rec.ring.Drain(rec.sink)
			rec.lost += lost
			return
		case <-tick.C:
			_, lost := rec.ring.Drain(rec.sink)
			rec.lost += lost
		}
	}
}

// stop performs the final drain and reports how many events the recorder
// lost to ring overwrites over the whole run (0 unless the consumer fell a
// full ring behind the scheduler).
func (rec *recorder) stop() uint64 {
	close(rec.quit)
	<-rec.done
	return rec.lost
}

// serveDebug exposes live telemetry over HTTP: the counter snapshot as JSON
// (expvar-style), the latency histograms as JSON, and both in Prometheus
// text exposition on /metrics. The sinks are internally locked, so request
// handlers are safe against the recorder goroutine's concurrent folding.
// The returned function shuts the server down: it closes the listener and
// waits for in-flight scrapes to drain.
func serveDebug(addr string, counters *obs.Counters, hists *obs.Histograms) (func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/schedvars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(counters.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/schedhist", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteSchedHist(w, hists); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap := counters.Snapshot()
		if err := obs.WritePrometheus(w, &snap, hists); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown
	fmt.Printf("telemetry endpoints: http://%s/metrics /debug/schedvars /debug/schedhist\n", ln.Addr())
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}, nil
}

// liveWorkload downsizes the Table I mix (task counts divided by ~6) so a
// live run completes in seconds at sub-millisecond time scales.
func liveWorkload(jobs int, seed int64) ([]job.Spec, error) {
	types := workload.TableI()
	for i := range types {
		types[i].Maps = max(2, types[i].Maps/6)
		types[i].Reduces = max(1, types[i].Reduces/6)
		types[i].MapMean /= 2
		types[i].ReduceMean /= 2
		// Rescale the per-type counts to the requested total.
		types[i].Count = max(1, types[i].Count*jobs/100)
	}
	wcfg := workload.Config{MeanInterval: 1, DurationSigma: 0.4, Seed: seed}
	specs, err := workload.GenerateMix(types, wcfg)
	if err != nil {
		return nil, err
	}
	// Arrivals are driven live by the caller; clear the generated ones.
	for i := range specs {
		specs[i].Arrival = 0
	}
	return specs, nil
}
