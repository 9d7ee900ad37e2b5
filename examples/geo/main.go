// Geo-distributed analytics: the paper's Discussion-section scenario where
// "network transfer times could be comparable or even larger than the CPU
// times". Queries run over data spread across three sites connected by slow,
// variable WAN links. Two experiments separate the two bottlenecks the paper
// says must be coupled: task placement against the network, and job ordering
// against the heavy scans.
//
// Run with:
//
//	go run ./examples/geo
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lasmq/internal/core"
	"lasmq/internal/geo"
	"lasmq/internal/sched"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if err := placementExperiment(); err != nil {
		return err
	}
	fmt.Println()
	return orderingExperiment()
}

// placementExperiment: moderate load, expensive transfers — where the tasks
// run dominates.
func placementExperiment() error {
	var specs []geo.JobSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, geoJob(i+1, "etl", float64(5*i), 9, 5, 10))
	}
	cfg := geo.DefaultConfig()
	cfg.SiteContainers = []int{8, 8, 8}
	cfg.BaseBandwidth = 0.5 // slow WAN: moving 10 data units costs ~20 s

	fmt.Println("experiment 1 — task placement on a slow WAN (same Fair scheduler):")
	for _, placement := range []geo.PlacementPolicy{geo.PlaceBlind, geo.PlaceLocalityAware} {
		gcfg := cfg
		gcfg.Placement = placement
		res, err := geo.Run(specs, sched.NewFair(), gcfg)
		if err != nil {
			return err
		}
		var transfer float64
		remote := 0
		for _, jr := range res.Jobs {
			transfer += jr.TransferTime
			remote += jr.RemoteTasks
		}
		fmt.Printf("  %-16s mean response %6.1f s, %2d remote tasks, %5.0f s transferring\n",
			placement, res.MeanResponseTime(), remote, transfer)
	}
	fmt.Println("  Running tasks next to their data removes the WAN from the critical path.")
	return nil
}

// orderingExperiment: heavy contention with fine-grained tasks — where the
// job order dominates.
func orderingExperiment() error {
	r := rand.New(rand.NewSource(7))
	var specs []geo.JobSpec
	arrival := 0.0
	for i := 1; i <= 30; i++ {
		arrival += r.ExpFloat64() * 8
		if i%5 == 0 {
			specs = append(specs, geoJob(i, "heavy-scan", arrival, 400, 5, 2))
		} else {
			specs = append(specs, geoJob(i, "interactive", arrival, 12, 3, 2))
		}
	}
	cfg := geo.DefaultConfig()
	cfg.SiteContainers = []int{6, 6, 6}

	fmt.Println("experiment 2 — job ordering under contention (locality-aware placement):")
	policies := map[string]func() (sched.Scheduler, error){
		"FIFO":   func() (sched.Scheduler, error) { return sched.NewFIFO(), nil },
		"FAIR":   func() (sched.Scheduler, error) { return sched.NewFair(), nil },
		"LAS_MQ": mq,
	}
	for _, name := range []string{"FIFO", "FAIR", "LAS_MQ"} {
		p, err := policies[name]()
		if err != nil {
			return err
		}
		res, err := geo.Run(specs, p, cfg)
		if err != nil {
			return err
		}
		var interactive float64
		n := 0
		for _, jr := range res.Jobs {
			if jr.Name == "interactive" {
				interactive += jr.ResponseTime
				n++
			}
		}
		fmt.Printf("  %-7s mean response %6.1f s (interactive queries: %5.1f s)\n",
			name, res.MeanResponseTime(), interactive/float64(n))
	}
	fmt.Println("  LAS_MQ demotes the heavy scans without knowing any query sizes;")
	fmt.Println("  interactive queries stop queueing behind them.")
	return nil
}

func mq() (sched.Scheduler, error) {
	cfg := core.DefaultConfig()
	cfg.FirstThreshold = 10
	return core.New(cfg)
}

func geoJob(id int, name string, arrival float64, tasks int, compute, dataSize float64) geo.JobSpec {
	ts := make([]geo.TaskSpec, tasks)
	for i := range ts {
		ts[i] = geo.TaskSpec{Compute: compute, DataSite: i % 3, DataSize: dataSize}
	}
	return geo.JobSpec{ID: id, Name: name, Arrival: arrival, Priority: 1, Tasks: ts}
}
