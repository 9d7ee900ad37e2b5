// Package lasmq is a from-scratch reproduction of "Job Scheduling without
// Prior Information in Big Data Processing Systems" (Hu, Li, Qin, Goh —
// ICDCS 2017): the LAS_MQ multilevel-queue job scheduler for YARN-style
// clusters, together with everything needed to evaluate it — a task-level
// discrete-event cluster simulator, an event-driven fluid simulator for
// trace-scale studies, the FIFO/Fair/LAS/SJF/SRTF baselines, the paper's
// Table I workload, a synthetic Facebook-2010-like trace, and one runner per
// table and figure of the paper's evaluation.
//
// # The scheduler
//
// LAS_MQ schedules jobs without knowing their sizes. Jobs enter the
// highest-priority queue and are demoted once the service they have attained
// (container-seconds, optionally projected forward with stage awareness)
// crosses exponentially increasing thresholds. Small jobs therefore complete
// in the top queues while large jobs sink, which mimics shortest-job-first
// without size information. Capacity is shared across queues by weighted
// fair sharing (no starvation) and jobs within a queue are served one by one,
// ordered by the container demand of their remaining tasks.
//
// # Quick start
//
//	cfg := lasmq.DefaultSchedulerConfig()
//	scheduler, err := lasmq.NewScheduler(cfg)
//	if err != nil { ... }
//	specs, err := lasmq.GenerateWorkload(lasmq.DefaultWorkloadConfig())
//	if err != nil { ... }
//	result, err := lasmq.RunCluster(specs, scheduler, lasmq.DefaultClusterConfig())
//	if err != nil { ... }
//	fmt.Println(result.MeanResponseTime())
//
// See examples/ for runnable programs, cmd/lasmq for the command, and DESIGN.md /
// EXPERIMENTS.md for the system inventory and the paper-vs-measured record.
package lasmq
