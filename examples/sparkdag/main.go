// Spark-style DAG jobs: the paper targets Hadoop *and* Spark, and Spark
// stages form a DAG over RDD lineage rather than a map→reduce chain. This
// example runs a SQL-ish query plan — scan fanning out to two independent
// branches that join at the end — and shows that LAS_MQ needs no changes:
// the stage-aware service estimate simply sums over the active branches.
//
// Run with:
//
//	go run ./examples/sparkdag
package main

import (
	"fmt"
	"log"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A query-plan DAG:
	//
	//            ┌── filter(users) ──┐
	//   scan ────┤                   ├── join ── aggregate
	//            └── filter(events) ─┘
	query := job.Spec{
		ID: 1, Name: "sql-query", Priority: 1,
		Stages: []job.StageSpec{
			mkStage("scan", 16, 12, []int{}),
			mkStage("filter-users", 8, 20, []int{0}),
			mkStage("filter-events", 8, 6, []int{0}),
			mkStage("join", 6, 15, []int{1, 2}),
			mkStage("aggregate", 2, 8, []int{3}),
		},
	}
	// The same stages as a forced linear chain, for comparison.
	linear := query
	linear.ID = 2
	linear.Name = "sql-query-linear"
	linear.Stages = append([]job.StageSpec(nil), query.Stages...)
	for i := range linear.Stages {
		linear.Stages[i].DependsOn = nil // default: depend on the previous stage
	}

	cfg := engine.DefaultConfig()
	cfg.Containers = 32
	cfg.MaxRunningJobs = 0

	mq, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	res, err := engine.Run([]job.Spec{query, linear}, mq, cfg)
	if err != nil {
		return err
	}
	fmt.Println("one cluster, two plans for the same stages:")
	for _, jr := range res.Jobs {
		fmt.Printf("  %-18s completed at %5.0f s (service %.0f container-seconds)\n",
			jr.Name, jr.Completed, jr.Service)
	}
	fmt.Println()
	fmt.Println("The DAG plan finishes earlier: filter-users and filter-events run")
	fmt.Println("concurrently, so the critical path skips the shorter branch entirely.")

	// And a DAG job competing with small jobs under LAS_MQ: the heavy DAG is
	// demoted across BOTH of its active branches at once.
	heavy := query
	heavy.ID = 3
	heavy.Name = "heavy-dag"
	small := job.Spec{
		ID: 4, Name: "small-adhoc", Priority: 1, Arrival: 30,
		Stages: []job.StageSpec{mkStage("probe", 4, 3, []int{})},
	}
	mq2, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	res2, err := engine.Run([]job.Spec{heavy, small}, mq2, cfg)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Printf("with a late small job: %s responds in %.0f s, %s in %.0f s\n",
		res2.Jobs[1].Name, res2.Jobs[1].ResponseTime,
		res2.Jobs[0].Name, res2.Jobs[0].ResponseTime)
	return nil
}

func mkStage(name string, tasks int, seconds float64, deps []int) job.StageSpec {
	ts := make([]job.TaskSpec, tasks)
	for i := range ts {
		ts[i] = job.TaskSpec{Duration: seconds, Containers: 1}
	}
	return job.StageSpec{Name: name, Tasks: ts, DependsOn: deps}
}
