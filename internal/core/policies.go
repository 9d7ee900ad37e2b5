package core

import (
	"fmt"
	"strings"

	"lasmq/internal/sched"
)

// baselines is the name→constructor table of the zero-argument policies.
// Together with "lasmq" (the one policy that takes a Config) it is the only
// place a policy name is bound to a constructor: the CLIs' -scheduler flag
// and the experiment sweeps both resolve names through NewPolicy.
var baselines = []struct {
	name string
	new  func() sched.Scheduler
}{
	{"las", func() sched.Scheduler { return sched.NewLAS() }},
	{"fair", func() sched.Scheduler { return sched.NewFair() }},
	{"fifo", func() sched.Scheduler { return sched.NewFIFO() }},
	{"sjf", func() sched.Scheduler { return sched.NewSJF() }},
	{"srtf", func() sched.Scheduler { return sched.NewSRTF() }},
	{"ps", func() sched.Scheduler { return sched.NewPS() }},
	{"srpt", func() sched.Scheduler { return sched.NewSRPT() }},
}

// PolicyNames lists the names NewPolicy accepts, LAS_MQ first.
func PolicyNames() []string {
	names := []string{"lasmq"}
	for _, b := range baselines {
		names = append(names, b.name)
	}
	return names
}

// NewPolicy constructs a fresh scheduler by name (case-insensitive; LAS_MQ
// also answers to its reporting name "LAS_MQ" and to "las-mq"). mq
// configures LAS_MQ and is ignored by every other policy.
func NewPolicy(name string, mq Config) (sched.Scheduler, error) {
	key := strings.ToLower(name)
	if key == "lasmq" || key == "las_mq" || key == "las-mq" {
		s, err := New(mq)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	for _, b := range baselines {
		if b.name == key {
			return b.new(), nil
		}
	}
	return nil, fmt.Errorf("unknown scheduler %q (want one of %s)", name, strings.Join(PolicyNames(), ", "))
}
