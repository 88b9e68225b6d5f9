package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestCheckedUnderSimActivations: the simulator offers every decision point
// to Decide first, and a declined Decide may leave expired entities for the
// Next calls that follow to migrate. The audited scheduler must check only
// answered decisions, so a whole sim.Run under time and count activation —
// which decline the most — finishes without a violation, with every
// transaction's decision audited.
func TestCheckedUnderSimActivations(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  core.Option
	}{
		{"time", core.WithTimeActivation(0.01)},
		{"count", core.WithCountActivation(0.1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, servers := range []int{1, 4} {
				set := workload.MustGenerate(workload.Default(0.95*float64(servers), 1).WithN(400).WithWeights().WithWorkflows(4, 2))
				checked := core.NewChecked(core.New(c.opt))
				if _, err := sim.New(sim.Config{Servers: servers}).Run(set, checked); err != nil {
					t.Fatal(err)
				}
				if checked.Checks() < set.Len() {
					t.Fatalf("%d servers: %d decision points audited for %d transactions", servers, checked.Checks(), set.Len())
				}
			}
		})
	}
}
