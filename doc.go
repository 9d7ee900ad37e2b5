// Package lasmq is a from-scratch reproduction of "Job Scheduling without
// Prior Information in Big Data Processing Systems" (Hu, Li, Qin, Goh —
// ICDCS 2017): the LAS_MQ multilevel-queue job scheduler for YARN-style
// clusters, together with the baselines, simulators, workloads and
// experiment runners needed to evaluate it.
//
// LAS_MQ schedules jobs without knowing their sizes. Jobs enter the
// highest-priority queue and are demoted once the service they have attained
// crosses exponentially increasing thresholds, so small jobs complete in the
// top queues while large jobs sink.
//
// This package exports nothing. The repository is used through two
// surfaces: the command in cmd/lasmq (lasmq bench regenerates every table
// and figure of the paper's evaluation; sim, cluster, trace and live run
// single simulations, traces and the live cluster), and the runnable
// programs under examples/, which call the internal packages directly.
// DESIGN.md maps every package, and EXPERIMENTS.md records paper versus
// measured results.
package lasmq
