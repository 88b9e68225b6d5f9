package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestRunAllocs pins the per-run allocations of a bare 10k-transaction
// sim.Run: the kernel's set-up and loop must not add any.
func TestRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count over 10k-transaction runs")
	}
	set := workload.NewSpec(0.95, 1).WithN(10000).MustBuild()
	for _, c := range []struct {
		name string
		new  func() sched.Scheduler
		max  float64
	}{
		{"FCFS", sched.NewFCFS, 22},
		{"ASETS*", func() sched.Scheduler { return core.New() }, 41},
	} {
		sim := New(Config{})
		got := testing.AllocsPerRun(5, func() { sim.MustRun(set, c.new()) })
		if got > c.max {
			t.Errorf("%s: %v allocations per run, want <= %v", c.name, got, c.max)
		}
		t.Logf("%s: %v allocations per run", c.name, got)
	}
}
