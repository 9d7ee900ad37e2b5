// Mini-YARN: run LAS_MQ on a *live* concurrent cluster instead of a
// simulation — a ResourceManager goroutine scheduling real (time-scaled)
// task attempts across NodeManager goroutines, mirroring the paper's plug-in
// scheduler deployment (its Fig. 4). One wall-clock millisecond represents
// one cluster second, so the paper's testbed-sized workload runs in seconds.
//
// Run with:
//
//	go run ./examples/miniyarn
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"lasmq/internal/core"
	"lasmq/internal/job"
	"lasmq/internal/yarn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	cfg := yarn.DefaultConfig()
	cfg.TimeScale = 500 * time.Microsecond // 1 cluster second = 0.5 ms

	cluster, err := yarn.New(cfg, mq)
	if err != nil {
		return err
	}
	cluster.Start()
	defer cluster.Shutdown()

	// Submit a shrunken Table I-style mix: two heavy jobs up front, small
	// and medium jobs trickling in behind them.
	specs := []job.Spec{
		mapReduce(1, "wordcount-100g", 120, 40, 16, 60),
		mapReduce(2, "seqcount-30g", 60, 25, 12, 30),
		mapReduce(3, "histogram-10g", 24, 15, 6, 15),
		mapReduce(4, "selfjoin-1g", 12, 8, 2, 10),
		mapReduce(5, "teragen-1g", 10, 8, 2, 8),
		mapReduce(6, "classification-10g", 24, 15, 6, 15),
	}
	start := time.Now()
	for i, spec := range specs {
		if err := cluster.Submit(spec); err != nil {
			return err
		}
		if i < len(specs)-1 {
			time.Sleep(15 * time.Millisecond) // 30 cluster-seconds apart
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reports, err := cluster.Drain(ctx)
	if err != nil {
		return err
	}

	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	fmt.Printf("live cluster drained in %v wall time (%d nodes x %d containers)\n\n",
		time.Since(start).Round(time.Millisecond), cfg.Nodes, cfg.ContainersPerNode)
	fmt.Printf("%-20s %16s %16s\n", "job", "response (s)", "service (ctr-s)")
	for _, r := range reports {
		fmt.Printf("%-20s %16.0f %16.0f\n", r.Name, r.Response, r.Service)
	}
	fmt.Println("\nThe two heavy jobs were demoted to lower queues while the small jobs")
	fmt.Println("flowed through the top queues — on a real concurrent scheduler, not a")
	fmt.Println("discrete-event simulation.")
	return nil
}

func mapReduce(id int, name string, nMap int, mapSec float64, nReduce int, redSec float64) job.Spec {
	maps := make([]job.TaskSpec, nMap)
	for i := range maps {
		maps[i] = job.TaskSpec{Duration: mapSec, Containers: 1}
	}
	reduces := make([]job.TaskSpec, nReduce)
	for i := range reduces {
		reduces[i] = job.TaskSpec{Duration: redSec, Containers: 2}
	}
	return job.Spec{
		ID: id, Name: name, Priority: 1,
		Stages: []job.StageSpec{
			{Name: "map", Tasks: maps},
			{Name: "reduce", Tasks: reduces},
		},
	}
}
