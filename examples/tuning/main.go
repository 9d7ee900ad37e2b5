// Parameter tuning: sweep LAS_MQ's number of queues, first threshold and
// cross-queue weight decay on the Table I workload (the paper's Fig. 8
// methodology applied to the testbed simulator) to see how robust the
// defaults are.
//
// Run with:
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/sched"
	"lasmq/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	wcfg := workload.DefaultConfig()
	wcfg.MeanInterval = 50
	wcfg.Seed = 3
	specs, err := workload.Generate(wcfg)
	if err != nil {
		return err
	}
	cluster := engine.DefaultConfig()

	fair, err := engine.Run(specs, sched.NewFair(), cluster)
	if err != nil {
		return err
	}
	fairMean := fair.MeanResponseTime()
	fmt.Printf("FAIR baseline mean response: %.0f s\n", fairMean)
	fmt.Println("normalized response time vs FAIR (higher is better):")

	runWith := func(mutate func(*core.Config)) (float64, error) {
		cfg := core.DefaultConfig()
		mutate(&cfg)
		mq, err := core.New(cfg)
		if err != nil {
			return 0, err
		}
		res, err := engine.Run(specs, mq, cluster)
		if err != nil {
			return 0, err
		}
		return fairMean / res.MeanResponseTime(), nil
	}

	fmt.Println("\nnumber of queues (threshold 100, step 10):")
	fmt.Println("          basic MLQ   full design (stage awareness + ordering)")
	for _, k := range []int{1, 2, 4, 5, 10, 15} {
		basic, err := runWith(func(c *core.Config) {
			c.Queues = k
			c.StageAware = false
			c.OrderByDemand = false
		})
		if err != nil {
			return err
		}
		full, err := runWith(func(c *core.Config) { c.Queues = k })
		if err != nil {
			return err
		}
		fmt.Printf("  k=%-3d   %9.2f   %9.2f\n", k, basic, full)
	}

	fmt.Println("\nfirst-queue threshold (10 queues, step 10):")
	for _, alpha := range []float64{1, 10, 100, 1000, 10000} {
		norm, err := runWith(func(c *core.Config) { c.FirstThreshold = alpha })
		if err != nil {
			return err
		}
		fmt.Printf("  alpha0=%-6g -> %.2f\n", alpha, norm)
	}

	fmt.Println("\ncross-queue weight decay:")
	for _, decay := range []float64{1, 2, 4, 8, 16} {
		norm, err := runWith(func(c *core.Config) { c.QueueWeightDecay = decay })
		if err != nil {
			return err
		}
		fmt.Printf("  decay=%-4g -> %.2f\n", decay, norm)
	}

	fmt.Println("\nWith the basic multilevel queue, the queue count is what separates")
	fmt.Println("large jobs from small ones; the full design's in-queue ordering and")
	fmt.Println("stage awareness make every knob forgiving across orders of magnitude.")
	return nil
}
