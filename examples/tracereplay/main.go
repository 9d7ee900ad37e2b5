// Trace replay: synthesize the heavy-tailed Facebook-like trace, persist it
// as CSV, replay it through the fluid simulator under all four policies, and
// report the paper's Fig. 7a comparison.
//
// Run with:
//
//	go run ./examples/tracereplay
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/sched"
	"lasmq/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Synthesize a (scaled-down) heavy-tailed trace and persist it.
	tcfg := trace.DefaultFacebookConfig()
	tcfg.Jobs = 5000
	tcfg.Seed = 42
	specs, err := trace.Facebook(tcfg)
	if err != nil {
		return err
	}

	path := filepath.Join(os.TempDir(), "lasmq-trace.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteCSV(f, specs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d jobs to %s\n", len(specs), path)

	// Replay it: any CSV trace (including real ones) goes through the same
	// path.
	g, err := os.Open(path)
	if err != nil {
		return err
	}
	replayed, err := trace.ReadCSV(g)
	g.Close()
	if err != nil {
		return err
	}

	fcfg := fluid.DefaultConfig()
	fcfg.Capacity = tcfg.Capacity

	fmt.Println("\nmean job response time on the replayed trace (load 0.9):")
	policies := []sched.Scheduler{sched.NewLAS(), sched.NewFair(), sched.NewFIFO()}
	mqCfg := core.DefaultConfig()
	mqCfg.FirstThreshold = 1 // the paper's trace-simulation threshold
	mqCfg.StageAware = false
	mqCfg.OrderByDemand = false
	mq, err := core.New(mqCfg)
	if err != nil {
		return err
	}
	policies = append([]sched.Scheduler{mq}, policies...)

	var fair float64
	results := make(map[string]float64, len(policies))
	for _, p := range policies {
		res, err := fluid.Run(replayed, p, fcfg)
		if err != nil {
			return err
		}
		results[res.Scheduler] = res.MeanResponseTime()
		if res.Scheduler == "FAIR" {
			fair = res.MeanResponseTime()
		}
	}
	for _, name := range []string{"LAS_MQ", "LAS", "FAIR", "FIFO"} {
		fmt.Printf("  %-7s %10.3f  (%.2fx vs FAIR)\n", name, results[name], fair/results[name])
	}
	fmt.Println("\nLAS and LAS_MQ separate the heavy tail; FIFO collapses behind it.")
	return nil
}
