package core

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestCheckedAuditsEveryDecision: the exported wrapper audits each Next and
// counts it; a clean run never panics.
func TestCheckedAuditsEveryDecision(t *testing.T) {
	cfg := workload.Default(0.8, 17).WithWorkflows(4, 2).WithWeights()
	cfg.N = 200
	set := workload.MustGenerate(cfg)
	c := NewChecked(New())
	if _, err := simRunForTest(set, c); err != nil {
		t.Fatal(err)
	}
	// Every completion is a decision point, so at least N audits ran.
	if c.Checks() < cfg.N {
		t.Fatalf("only %d decision points audited for %d transactions", c.Checks(), cfg.N)
	}
	if !strings.HasSuffix(c.Name(), "+inv") {
		t.Fatalf("Name() = %q, want +inv suffix marking audited runs", c.Name())
	}
}

// TestCheckedPanicsOnCorruption: a seeded violation must abort the next
// decision, not pass silently.
func TestCheckedPanicsOnCorruption(t *testing.T) {
	set := mustSet(t, mk(0, 0, 10, 2), mk(1, 0, 20, 3))
	c := NewChecked(New())
	c.Init(set)
	c.OnArrival(0, set.ByID(0))
	c.OnArrival(0, set.ByID(1))
	// Corrupt the entity Next will NOT check out (checked-out entities are
	// dequeued and skip most of the audit): its ready count goes stale.
	c.ASETSStar.members(1)[0].ready++
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Checked.Next did not panic on corrupted representative")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "invariant violated") {
			t.Fatalf("panic message = %v", r)
		}
	}()
	c.Next(0)
}
