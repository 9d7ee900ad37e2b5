package fluid_test

import (
	"fmt"

	"lasmq/internal/core"
	"lasmq/internal/fluid"
	"lasmq/internal/sched"
)

// ExampleRun reproduces the paper's motivating example (Fig. 1): under LAS,
// jobs A and B degrade to processor sharing; a 2-level multilevel queue
// serves them one by one and cuts A's response time from 9 to 6.
func ExampleRun() {
	specs := []fluid.JobSpec{
		{ID: 1, Arrival: 0, Size: 4, Width: 1, Priority: 1}, // A
		{ID: 2, Arrival: 1, Size: 4, Width: 1, Priority: 1}, // B
		{ID: 3, Arrival: 2, Size: 1, Width: 1, Priority: 1}, // C
	}
	cfg := fluid.Config{Capacity: 1, TaskDuration: 1}

	las, err := fluid.Run(specs, sched.NewLAS(), cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	mqCfg := core.DefaultConfig()
	mqCfg.Queues = 2
	mqCfg.FirstThreshold = 1
	mqCfg.QueueWeightDecay = 1e9 // strict priority, as in the paper's figure
	mq, err := core.New(mqCfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	mlq, err := fluid.Run(specs, mq, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("job A under LAS: %.0f\n", las.Jobs[0].ResponseTime)
	fmt.Printf("job A under 2-level queue: %.0f\n", mlq.Jobs[0].ResponseTime)
	// Output:
	// job A under LAS: 9
	// job A under 2-level queue: 6
}
