package executor

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestRunAllocs pins the per-run allocations of a bare 10k-transaction
// FakeClock replay: construction plus Run.
func TestRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count over 10k-transaction runs")
	}
	set := workload.MustGenerate(workload.Default(0.95, 1).WithN(10000))
	for _, c := range []struct {
		name string
		new  func() sched.Scheduler
		max  float64
	}{
		{"FCFS", sched.NewFCFS, 22},
		{"ASETS*", func() sched.Scheduler { return core.New() }, 40},
	} {
		got := testing.AllocsPerRun(5, func() {
			ex := New(c.new(), set, Options{Clock: NewFakeClock(time.Unix(0, 0))})
			if _, err := ex.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %v allocations per run, want <= %v", c.name, got, c.max)
		}
		t.Logf("%s: %v allocations per run", c.name, got)
	}
}
