// Ad hoc analytics: the paper's motivating scenario. More than half of
// production jobs are ad hoc — run once, over new code or new data — so
// size-based schedulers must work from estimates, and estimates are wrong.
// This example submits the paper's Table I workload and compares SJF under
// increasingly bad size estimates against LAS_MQ, which needs none.
//
// Run with:
//
//	go run ./examples/adhoc
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
	cluster := engine.DefaultConfig()

	// Oracle SJF: perfect size information (the recurring-jobs assumption).
	wcfg := workload.DefaultConfig()
	wcfg.MeanInterval = 50
	wcfg.Seed = 7
	exact, err := workload.Generate(wcfg)
	if err != nil {
		return err
	}
	oracle, err := engine.Run(exact, sched.NewSJF(), cluster)
	if err != nil {
		return err
	}

	fmt.Println("mean job response time (seconds), 100 Table I jobs, 50 s arrivals:")
	fmt.Printf("  SJF with perfect sizes:     %8.0f\n", oracle.MeanResponseTime())

	// Ad hoc reality: size estimates off by up to the given factor either way.
	for _, errFactor := range []float64{2, 10, 100} {
		wcfg.SizeErrorFactor = errFactor
		specs, err := workload.Generate(wcfg)
		if err != nil {
			return err
		}
		res, err := engine.Run(specs, sched.NewSJF(), cluster)
		if err != nil {
			return err
		}
		fmt.Printf("  SJF, estimates off by x%-4g: %8.0f\n", errFactor, res.MeanResponseTime())
	}

	// LAS_MQ: no size information at all.
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	mqRes, err := engine.Run(exact, mq, cluster)
	if err != nil {
		return err
	}
	fmt.Printf("  LAS_MQ (no estimates):      %8.0f\n", mqRes.MeanResponseTime())

	fmt.Println()
	fmt.Println("LAS_MQ stays close to the oracle while SJF degrades as its size")
	fmt.Println("estimates degrade — the paper's case for size-oblivious scheduling.")
	return nil
}
