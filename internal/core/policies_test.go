package core

import (
	"strings"
	"testing"
)

// TestPolicyTable: every listed name builds a scheduler, a fresh one per call
// (schedulers are stateful), case-insensitively, and the listing is the table.
func TestPolicyTable(t *testing.T) {
	names := PolicyNames()
	if len(names) != len(baselines)+1 || names[0] != "lasmq" {
		t.Fatalf("PolicyNames() = %v, want lasmq then the %d baselines", names, len(baselines))
	}
	seen := make(map[string]bool)
	for _, name := range names {
		if seen[name] {
			t.Errorf("policy name %q listed twice", name)
		}
		seen[name] = true
		a, err := NewPolicy(name, DefaultConfig())
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		b, err := NewPolicy(strings.ToUpper(name), DefaultConfig())
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", strings.ToUpper(name), err)
		}
		if a == b {
			t.Errorf("NewPolicy(%q) returned the same instance twice", name)
		}
		// Reporting names round-trip: the experiment sweeps resolve policies
		// by Scheduler.Name().
		c, err := NewPolicy(a.Name(), DefaultConfig())
		if err != nil || c.Name() != a.Name() {
			t.Errorf("NewPolicy(%q) = %v, %v; want a %s scheduler", a.Name(), c, err, a.Name())
		}
	}
	if s, err := NewPolicy("las-mq", DefaultConfig()); err != nil || s.Name() != "LAS_MQ" {
		t.Errorf("NewPolicy(las-mq) = %v, %v; want a LAS_MQ scheduler", s, err)
	}
}

func TestNewPolicyUnknown(t *testing.T) {
	s, err := NewPolicy("bogus", DefaultConfig())
	if err == nil || s != nil {
		t.Fatalf("NewPolicy(bogus) = %v, %v; want nil and an error", s, err)
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestNewPolicyInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Queues = 0
	if s, err := NewPolicy("lasmq", cfg); err == nil || s != nil {
		t.Errorf("NewPolicy(lasmq, invalid) = %v, %v; want nil and an error", s, err)
	}
}
