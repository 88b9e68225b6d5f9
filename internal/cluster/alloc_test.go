package cluster

import (
	"runtime"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/workload"
)

// fleetAllocsMax pins the allocations of one run of TestFleetAllocs's
// fleet: measured 110 to 114, all of them per-run or per-instance set-up.
// A per-shed allocation would add thousands.
const fleetAllocsMax = 130

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
		set := workload.MustGenerate(workload.Default(4*1.2, 1).WithWeights().WithN(n))
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

// crashBytesMax bounds what TestCrashBytes's four crash windows add to a
// run, in bytes per transaction: measured 0.06. A crash that allocated a
// slab over the set — a fresh scheduler, say — would add about 13 B each.
const crashBytesMax = 0.5

// TestCrashBytes: a crash restarts its instance's scheduler in place, so a
// fleet run with four crash windows allocates about what the same run
// without them does. The crash-lost transactions' failover counts and the
// drained victims are all a crash adds.
func TestCrashBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocated bytes over 20k-transaction fleet runs")
	}
	const n = 20_000
	spec := workload.Default(4*0.78, 1).WithWeights().WithN(n)
	spec.KMax = 6
	set := workload.MustGenerate(spec)
	horizon := set.Txns[n-1].Arrival
	crash := func(f float64) fault.Window {
		return fault.Window{Start: f * horizon, Duration: 50, Kind: fault.Crash}
	}
	perTxn := func(faults []*fault.Plan) (float64, *Result) {
		cfg := Config{
			Instances:        4,
			Policy:           HealthWeighted{},
			NewScheduler:     func() sched.Scheduler { return core.New() },
			NewAdmit:         func() admit.Controller { return admit.Feasibility{Tolerance: 10} },
			Faults:           faults,
			RecoveryCooldown: 10,
		}
		run := func() *Result {
			res, err := New(cfg).Run(set)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		run() // warm-up
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := run()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n, res
	}
	calm, _ := perTxn(nil)
	crashed, res := perTxn([]*fault.Plan{
		{Stalls: []fault.Window{crash(0.2), crash(0.6)}},
		{Stalls: []fault.Window{crash(0.4), crash(0.8)}},
		nil, nil,
	})
	t.Logf("%.2f B/txn without crashes, %.2f with four (%d crash-lost, %d failovers)", calm, crashed, res.Instances[0].CrashLost+res.Instances[1].CrashLost, res.Failovers)
	if res.Summary.Stalls != 4 || res.Instances[0].CrashLost+res.Instances[1].CrashLost == 0 {
		t.Fatalf("%d crash windows entered, crash-lost %d and %d: the windows must hit queued work", res.Summary.Stalls, res.Instances[0].CrashLost, res.Instances[1].CrashLost)
	}
	if d := crashed - calm; d > crashBytesMax {
		t.Errorf("four crashes add %.2f B/txn, want <= %v", d, crashBytesMax)
	}
}
