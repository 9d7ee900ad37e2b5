package engine_test

import (
	"fmt"

	"lasmq/internal/core"
	"lasmq/internal/engine"
	"lasmq/internal/job"
)

// ExampleRun schedules two hand-built jobs — one large, one small — and
// shows LAS_MQ letting the late small job overtake the demoted large one.
func ExampleRun() {
	mkJob := func(id int, name string, arrival float64, tasks int, dur float64) job.Spec {
		ts := make([]job.TaskSpec, tasks)
		for i := range ts {
			ts[i] = job.TaskSpec{Duration: dur, Containers: 1}
		}
		return job.Spec{
			ID: id, Name: name, Priority: 1, Arrival: arrival,
			Stages: []job.StageSpec{{Name: "map", Tasks: ts}},
		}
	}
	specs := []job.Spec{
		mkJob(1, "large", 0, 100, 60),
		mkJob(2, "small", 30, 2, 5),
	}
	scheduler, err := core.New(core.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := engine.DefaultConfig()
	cfg.Containers = 20

	result, err := engine.Run(specs, scheduler, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, jr := range result.Jobs {
		fmt.Printf("%s: response %.0f s\n", jr.Name, jr.ResponseTime)
	}
	// Output:
	// large: response 305 s
	// small: response 35 s
}
