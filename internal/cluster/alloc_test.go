package cluster

import (
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/workload"
)

// fleetAllocsMax pins the allocations of one run of TestFleetAllocs's
// fleet: measured 150 to 153, all of them per-run or per-instance set-up.
// A per-shed allocation would add thousands.
const fleetAllocsMax = 170

// TestFleetAllocs pins the allocations of a 4-instance HealthWeighted fleet
// under a slack-feasibility gate with two crash windows, at a load that
// sheds thousands of arrivals: the routing pick, the admission gate, a shed
// and a failover allocate nothing, so the count stays the same when the
// run, and its shed count, doubles.
func TestFleetAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation count over 20k-transaction fleet runs")
	}
	failovers := 0
	for _, n := range []int{10_000, 20_000} {
		set := workload.NewSpec(4*1.2, 1).WithWeights().WithN(n).MustBuild()
		horizon := set.Txns[n-1].Arrival
		cfg := Config{
			Instances:    4,
			Policy:       HealthWeighted{},
			NewScheduler: func() sched.Scheduler { return core.New() },
			NewAdmit:     func() admit.Controller { return admit.Feasibility{Tolerance: 10} },
			Faults: []*fault.Plan{
				{Stalls: []fault.Window{{Start: 0.3 * horizon, Duration: 50, Kind: fault.Crash}}},
				{Stalls: []fault.Window{{Start: 0.7 * horizon, Duration: 50, Kind: fault.Crash}}},
				nil, nil,
			},
			RecoveryCooldown: 10,
		}
		var res *Result
		got := testing.AllocsPerRun(3, func() {
			var err error
			if res, err = New(cfg).Run(set); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %v allocations per run, %d shed, %d failovers", n, got, res.Shed, res.Failovers)
		if res.Shed < n/4 {
			t.Fatalf("n=%d: %d shed; the fixture must shed thousands", n, res.Shed)
		}
		if got > fleetAllocsMax {
			t.Errorf("n=%d: %v allocations per run, want <= %d", n, got, fleetAllocsMax)
		}
		failovers += res.Failovers
	}
	if failovers == 0 {
		t.Fatal("no failover: the crash windows must lose queued work")
	}
}
