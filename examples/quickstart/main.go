// Quickstart: schedule a handful of jobs of very different sizes on a small
// simulated cluster and watch LAS_MQ separate them without being told any
// sizes — the paper's Fig. 1 idea at cluster scale.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
	"lasmq/internal/sched"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A mixed workload: two large jobs arrive first, then small ones trickle
	// in behind them. No scheduler is told any job sizes.
	specs := []job.Spec{
		batchJob(1, "etl-large", 0, 400, 30),
		batchJob(2, "model-train", 10, 300, 40),
		batchJob(3, "dashboard-query", 60, 8, 5),
		batchJob(4, "alert-check", 90, 4, 5),
		batchJob(5, "sample-report", 120, 12, 6),
	}
	cfg := engine.DefaultConfig()
	cfg.Containers = 40
	cfg.MaxRunningJobs = 0

	fmt.Println("job response times (seconds) on a 40-container cluster:")
	fmt.Printf("%-16s %10s %10s %10s\n", "job", "FIFO", "FAIR", "LAS_MQ")

	fifoRes, err := engine.Run(specs, sched.NewFIFO(), cfg)
	if err != nil {
		return err
	}
	fairRes, err := engine.Run(specs, sched.NewFair(), cfg)
	if err != nil {
		return err
	}
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	mqRes, err := engine.Run(specs, mq, cfg)
	if err != nil {
		return err
	}

	for i := range specs {
		fmt.Printf("%-16s %10.0f %10.0f %10.0f\n",
			specs[i].Name,
			fifoRes.Jobs[i].ResponseTime,
			fairRes.Jobs[i].ResponseTime,
			mqRes.Jobs[i].ResponseTime)
	}
	fmt.Printf("%-16s %10.0f %10.0f %10.0f\n", "mean",
		fifoRes.MeanResponseTime(), fairRes.MeanResponseTime(), mqRes.MeanResponseTime())

	fmt.Println()
	fmt.Println("LAS_MQ mimics shortest-job-first without size information: the small")
	fmt.Println("jobs overtake the two large ones once those are demoted to lower queues.")
	return nil
}

// batchJob builds a single-stage job of n map tasks with the given duration.
func batchJob(id int, name string, arrival float64, tasks int, taskSeconds float64) job.Spec {
	ts := make([]job.TaskSpec, tasks)
	for i := range ts {
		ts[i] = job.TaskSpec{Duration: taskSeconds, Containers: 1}
	}
	return job.Spec{
		ID:       id,
		Name:     name,
		Bin:      1,
		Priority: 1,
		Arrival:  arrival,
		Stages:   []job.StageSpec{{Name: "map", Tasks: ts}},
	}
}
