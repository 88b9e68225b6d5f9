package executor

import (
	"context"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// faultPlan exercises aborts with backoff, a stall, a crash, and a burst.
func faultPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 0x5EED, AbortProb: 0.25, MaxRestarts: 3,
		BackoffBase: 0.5, BackoffCap: 4,
		Stalls: []fault.Window{
			{Start: 10, Duration: 3},
			{Start: 50, Duration: 2, Kind: fault.Crash},
		},
		Bursts: []fault.Burst{{At: 25, Width: 10}},
	}
}

func faultConfig(seed uint64) workload.Config {
	cfg := workload.Default(1.3, seed)
	cfg.N = 150
	return cfg.WithWorkflows(4, 1).WithWeights()
}

// faultReplayTranscript runs one FakeClock replay under the full fault plan
// and a queue-cap shedder, returning a byte-exact completion transcript and
// the final stats.
func faultReplayTranscript(t *testing.T, seed uint64) (string, Stats) {
	t.Helper()
	set := workload.MustGenerate(faultConfig(seed))
	col := &obs.Collector{}
	ex := New(core.New(), set, Options{
		TimeScale: time.Millisecond,
		Clock:     NewFakeClock(time.Unix(0, 0)),
		Faults:    faultPlan(),
		Admit:     admit.QueueCap{Max: 12},
		Sink:      col,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := ex.Run(ctx); err != nil {
		t.Fatal(err)
	}
	return completionTranscript(col), ex.Stats()
}

// TestFaultReplayDeterministic: under a FakeClock, two replays with the same
// seed, fault plan and admission controller produce byte-identical
// completion transcripts and identical fault/shed counters.
func TestFaultReplayDeterministic(t *testing.T) {
	tr1, st1 := faultReplayTranscript(t, 41)
	tr2, st2 := faultReplayTranscript(t, 41)
	if tr1 != tr2 {
		t.Fatal("same-seed fault replays produced different completion transcripts")
	}
	if st1 != st2 {
		t.Fatalf("same-seed fault replays produced different stats:\n%+v\n%+v", st1, st2)
	}
	if st1.Aborts == 0 || st1.Restarts == 0 || st1.Stalls == 0 || st1.Shed == 0 {
		t.Fatalf("fault plan injected nothing: %+v", st1)
	}
	if n := faultConfig(41).N; st1.Completed+st1.Shed != n {
		t.Fatalf("accounting broken: completed %d + shed %d != n %d", st1.Completed, st1.Shed, n)
	}
}

// TestFaultReplayMatchesSimulator: the executor's fault handling is the
// simulator's, so a FakeClock replay under the same plan and controller
// reproduces the simulator's fault counters, shed set and tardiness exactly.
func TestFaultReplayMatchesSimulator(t *testing.T) {
	setSim := workload.MustGenerate(faultConfig(41))
	summary, err := sim.New(sim.Config{
		Faults: faultPlan(),
		Admit:  admit.QueueCap{Max: 12},
	}).Run(setSim, core.New())
	if err != nil {
		t.Fatal(err)
	}
	_, st := faultReplayTranscript(t, 41)
	if st.Aborts != summary.Aborts || st.Restarts != summary.Restarts ||
		st.Stalls != summary.Stalls || st.Shed != summary.Shed {
		t.Fatalf("fault counters diverge: executor %+v vs sim aborts=%d restarts=%d stalls=%d shed=%d",
			st, summary.Aborts, summary.Restarts, summary.Stalls, summary.Shed)
	}
	if st.Completed != summary.N {
		t.Fatalf("completed %d != simulator's admitted %d", st.Completed, summary.N)
	}
	// The executor sums tardiness in completion order, metrics.Compute in ID
	// order; association differs, so allow a few ulps but nothing visible.
	if live, want := st.AvgTardiness(), summary.AvgTardiness; live-want > 1e-9 || want-live > 1e-9 {
		t.Fatalf("fault replay avg tardiness %v != simulator %v", live, want)
	}
}

// TestInvalidPlanSurfacesFromRun: a bad plan is reported by Run with an
// actionable error, not silently ignored at construction.
func TestInvalidPlanSurfacesFromRun(t *testing.T) {
	set := smallWorkload(t, 0.5, false)
	ex := New(core.New(), set, Options{
		TimeScale: fastScale,
		Faults:    &fault.Plan{AbortProb: 0.5}, // MaxRestarts == 0: invalid
	})
	if _, err := ex.Run(context.Background()); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}
