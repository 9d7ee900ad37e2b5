package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"lasmq/internal/core"
	"lasmq/internal/dist"
	"lasmq/internal/job"
	"lasmq/internal/obs"
	"lasmq/internal/stats"
	"lasmq/internal/workload"
	"lasmq/internal/yarn"
)

// runLive runs a scaled-down Table I workload on the live mini-YARN cluster
// (real goroutines and scaled wall-clock time, not a simulation) under a
// chosen policy.
//
// The ResourceManager's probe is a lock-free flight-recorder ring
// (obs.Ring): the scheduling goroutine records fixed-size events with no
// locks and no allocation, and a consumer goroutine drains them into the
// aggregating sinks (counters, histograms) off the hot path. -debug-addr
// serves that telemetry while the workload runs:
//
//	/metrics          Prometheus text exposition (counters + histograms)
//	/debug/schedvars  counter snapshot as JSON, expvar-style
//	/debug/schedhist  latency histograms (quantiles + buckets) as JSON
//
// The same counters print as a summary when the run drains. On every return
// the HTTP server is shut down (listener closed, in-flight scrapes drained)
// and the consumer stopped.
func runLive(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lasmq live", flag.ExitOnError)
	var (
		schedName  = fs.String("scheduler", "lasmq", "scheduling policy: "+strings.Join(core.PolicyNames(), ", "))
		jobs       = fs.Int("jobs", 20, "number of jobs to submit")
		seed       = fs.Int64("seed", 1, "workload seed")
		nodes      = fs.Int("nodes", 4, "node managers")
		perNode    = fs.Int("containers-per-node", 30, "containers per node")
		maxRunning = fs.Int("max-running", 30, "admission limit (0 = unlimited)")
		timeScale  = fs.Duration("time-scale", 500*time.Microsecond, "wall time per cluster second")
		interval   = fs.Float64("interval", 30, "mean arrival interval in cluster seconds")
		timeout    = fs.Duration("timeout", 5*time.Minute, "drain timeout")
		debugAddr  = fs.String("debug-addr", "", "serve live telemetry on http://ADDR/metrics, /debug/schedvars and /debug/schedhist")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	policy, err := core.NewPolicy(*schedName, core.DefaultConfig())
	if err != nil {
		return err
	}
	specs, err := liveWorkload(*jobs, *seed)
	if err != nil {
		return err
	}
	arrivals, err := dist.NewPoissonProcess(dist.New(*seed), *interval)
	if err != nil {
		return err
	}
	// The ResourceManager emits all probe events from its single scheduling
	// goroutine, so a single-producer flight-recorder ring can replace the
	// mutex-guarded sinks on the hot path.
	ring := obs.NewRing(1 << 16)
	cluster, err := yarn.New(yarn.Config{
		Nodes:             *nodes,
		ContainersPerNode: *perNode,
		MaxRunningJobs:    *maxRunning,
		TimeScale:         *timeScale,
		HeartbeatInterval: 10 * *timeScale,
		Probe:             ring,
	}, policy)
	if err != nil {
		return err
	}
	cluster.Start()
	defer cluster.Shutdown()
	counters, hists := obs.NewCounters(), obs.NewHistograms()
	stopDrain := drainRing(ring, obs.Multi(counters, hists))
	defer stopDrain()
	stopDebug := func() error { return nil }
	if *debugAddr != "" {
		if stopDebug, err = serveDebug(out, *debugAddr, counters, hists); err != nil {
			return err
		}
	}
	defer stopDebug()

	start := time.Now()
	prev := 0.0
	for i := range specs {
		next := arrivals.Next()
		time.Sleep(time.Duration((next - prev) * float64(*timeScale)))
		prev = next
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
	// the summary below is complete, then retire the debug server before
	// reporting.
	lost := stopDrain()
	if err := stopDebug(); err != nil {
		return fmt.Errorf("debug server shutdown: %w", err)
	}

	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	responses, bins := make([]float64, len(reports)), make([]int, len(reports))
	for i, rep := range reports {
		responses[i], bins[i] = rep.Response, rep.Bin
	}
	fmt.Fprintf(out, "scheduler=%s jobs=%d cluster=%dx%d wall=%v\n",
		policy.Name(), len(reports), *nodes, *perNode, wall.Round(time.Millisecond))
	printSummary(out, "response times (cluster seconds)", responses)
	if err := printBinMeans(out, bins, responses); err != nil {
		return err
	}
	fmt.Fprintf(out, "jain fairness of responses: %.2f\n", stats.JainIndex(responses))
	fmt.Fprintln(out, "telemetry:")
	snap := counters.Snapshot()
	snap.WriteSummary(out)
	if resp, ok := hists.Histogram(obs.HistResponse); ok && resp.Count() > 0 {
		s := resp.Snapshot()
		fmt.Fprintf(out, "  response hist  p50 %.4g  p90 %.4g  p99 %.4g (n=%d)\n", s.P50, s.P90, s.P99, s.Count)
	}
	fmt.Fprintf(out, "  flight recorder %d event(s) recorded, %d lost\n", ring.Recorded(), lost)
	return nil
}

// drainRing starts the ring's single consumer, a goroutine that folds packed
// events into sink every 2 ms, keeping all mutex-taking sink work off the
// ResourceManager's scheduling goroutine. The returned function stops it
// after a final drain and reports how many events were lost to ring
// overwrites over the whole run (0 unless the consumer fell a full ring
// behind the scheduler); later calls return the same count.
func drainRing(ring *obs.Ring, sink obs.Sink) func() uint64 {
	quit, done := make(chan struct{}), make(chan struct{})
	var lost uint64
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for stopped := false; !stopped; {
			select {
			case <-quit:
				stopped = true
			case <-tick.C:
			}
			_, n := ring.Drain(sink)
			lost += n
		}
	}()
	return sync.OnceValue(func() uint64 {
		close(quit)
		<-done
		return lost
	})
}

// serveDebug exposes live telemetry over HTTP: the counter snapshot as JSON
// (expvar-style), the latency histograms as JSON, and both in Prometheus
// text exposition on /metrics. The sinks are internally locked, so request
// handlers are safe against the consumer goroutine's concurrent folding.
// The returned function shuts the server down once: it closes the listener
// and waits for in-flight scrapes to drain.
func serveDebug(out io.Writer, addr string, counters *obs.Counters, hists *obs.Histograms) (func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	handle := func(path, contentType string, write func(io.Writer) error) {
		mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", contentType)
			if err := write(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	handle("/debug/schedvars", "application/json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(counters.Snapshot())
	})
	handle("/debug/schedhist", "application/json", func(w io.Writer) error { return obs.WriteSchedHist(w, hists) })
	handle("/metrics", "text/plain; version=0.0.4; charset=utf-8", func(w io.Writer) error {
		snap := counters.Snapshot()
		return obs.WritePrometheus(w, &snap, hists)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown
	fmt.Fprintf(out, "telemetry endpoints: http://%s/metrics /debug/schedvars /debug/schedhist\n", ln.Addr())
	return sync.OnceValue(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}), nil
}

// liveWorkload downsizes the Table I mix (task counts divided by ~6) so a
// live run completes in seconds at sub-millisecond time scales, and
// apportions jobs over its types by largest remainder, so exactly jobs jobs
// are drawn; a type whose share rounds to 0 is dropped.
func liveWorkload(jobs int, seed int64) ([]job.Spec, error) {
	if jobs < 1 {
		return nil, errors.New("-jobs must be positive")
	}
	table := workload.TableI()
	total := 0
	for _, t := range table {
		total += t.Count
	}
	counts, order := make([]int, len(table)), make([]int, len(table))
	left := jobs
	for i, t := range table {
		counts[i], order[i] = t.Count*jobs/total, i
		left -= counts[i]
	}
	rem := func(i int) int { return table[i].Count * jobs % total }
	sort.SliceStable(order, func(a, b int) bool { return rem(order[a]) > rem(order[b]) })
	for _, i := range order[:left] {
		counts[i]++
	}
	var types []workload.JobType
	for i, t := range table {
		if counts[i] == 0 {
			continue
		}
		t.Count = counts[i]
		t.Maps = max(2, t.Maps/6)
		t.Reduces = max(1, t.Reduces/6)
		t.MapMean /= 2
		t.ReduceMean /= 2
		types = append(types, t)
	}
	specs, err := workload.GenerateMix(types, workload.Config{MeanInterval: 1, DurationSigma: 0.4, Seed: seed})
	if err != nil {
		return nil, err
	}
	// Arrivals are driven live by the caller; clear the generated ones.
	for i := range specs {
		specs[i].Arrival = 0
	}
	return specs, nil
}
