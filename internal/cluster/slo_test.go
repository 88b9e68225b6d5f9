package cluster

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/txn"
	"repro/internal/workload"
)

// overloadedClusterWorkload saturates a two-instance fleet (1.4 utilization
// per instance) with weighted transactions, so every class burns its error
// budget and the per-instance alert engines have something to say.
func overloadedClusterWorkload() *txn.Set {
	cfg := workload.Default(2.8, 0x510C1)
	cfg.N = 300
	cfg = cfg.WithWeights()
	return workload.MustGenerate(cfg)
}

func sloClusterConfig(col *obs.Collector, reg *obs.Registry, status *statusBoard) Config {
	return Config{
		Instances:    2,
		NewScheduler: sched.NewEDF,
		Sink:         col,
		Metrics:      reg,
		status:       status,
		SLO:          &slo.Config{Spec: slo.DefaultSpec(), Window: 50},
	}
}

// TestClusterSLOAlertsAndRollup: per-instance engines fire instance-prefixed
// alerts into the routed stream in time order, export inst-labeled gauges,
// and aggregate into the status board's fleet health rollup.
func TestClusterSLOAlertsAndRollup(t *testing.T) {
	col := &obs.Collector{}
	reg := obs.NewRegistry()
	status := &statusBoard{}
	res, err := New(sloClusterConfig(col, reg, status)).Run(overloadedClusterWorkload())
	if err != nil {
		t.Fatal(err)
	}

	evs := col.Events()
	if err := obs.Validate(evs); err != nil {
		t.Fatalf("routed stream with alerts fails validation: %v", err)
	}
	fires := 0
	last := -1.0
	for _, ev := range evs {
		if ev.Time < last {
			t.Fatalf("stream out of time order at %+v", ev)
		}
		last = ev.Time
		if ev.Kind == obs.KindAlertFire {
			fires++
			if !strings.HasPrefix(ev.Detail, "0:") && !strings.HasPrefix(ev.Detail, "1:") {
				t.Fatalf("alert detail %q lacks an instance prefix", ev.Detail)
			}
		}
	}
	if fires == 0 {
		t.Fatal("overloaded fleet fired no SLO alert")
	}

	if len(res.SLO) != 2 {
		t.Fatalf("Result.SLO has %d entries, want 2", len(res.SLO))
	}
	totalFires := 0
	for _, st := range res.SLO {
		totalFires += st.Fires
	}
	if totalFires != fires {
		t.Fatalf("Result.SLO counts %d fires, stream carries %d", totalFires, fires)
	}

	fh := status.health()
	if !fh.Enabled || !fh.Done {
		t.Fatalf("fleet health not enabled/done: %+v", fh)
	}
	if fh.Fires != fires || len(fh.Instances) != 2 {
		t.Fatalf("fleet health rollup wrong: %+v", fh)
	}
	if fh.WorstBurn <= 0 {
		t.Fatalf("overloaded fleet reports no burn: %+v", fh)
	}

	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`asets_slo_burn_ratio{class="light",inst="0"}`,
		`asets_slo_burn_ratio{class="light",inst="1"}`,
		`asets_slo_alert_fires_total{inst="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in /metrics exposition", want)
		}
	}
}

// TestClusterSLODeterminism: the routed stream including alert transitions
// is byte-identical across replays.
func TestClusterSLODeterminism(t *testing.T) {
	var events []obs.Event
	run := func() ([]byte, *Result) {
		col := &obs.Collector{}
		res, err := New(sloClusterConfig(col, obs.NewRegistry(), nil)).Run(overloadedClusterWorkload())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.SLO) != 2 {
			t.Fatalf("Result.SLO has %d entries, want 2", len(res.SLO))
		}
		events = col.Events()
		return streamBytes(t, events), res
	}
	a, res := run()
	b, _ := run()
	checkFolds(t, events, foldSLOInstants, foldSLOTxns)
	if !bytes.Equal(a, b) {
		t.Fatal("replay changed the routed stream with alerts")
	}
	checkGolden(t, "routed stream", a, goldenSLOStream)
	checkGolden(t, "result", resultBytes(t, res), goldenSLOResult)
	if !bytes.Contains(a, []byte(`"kind":"alert_fire"`)) {
		t.Fatal("no alert_fire in the routed stream")
	}
}

// TestClusterSLOCrashDrops: a crash that destroys queued work must also
// unwind the SLO backlog — otherwise the queue-bound rule would count
// transactions the fault domain no longer holds.
func TestClusterSLOCrashDrops(t *testing.T) {
	set := twoInstanceCrashSet(t)
	var spec slo.Spec
	for i := range spec.Classes {
		spec.Classes[i].QueueBound = 100 // enabled, never breached
	}
	col := &obs.Collector{}
	cfg := Config{
		Instances:    2,
		NewScheduler: sched.NewSRPT,
		Faults:       crashPlans(),
		Sink:         col,
		SLO:          &slo.Config{Spec: spec, Window: 10},
	}
	res, err := New(cfg).Run(set)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.SLO {
		for _, ch := range st.Classes {
			if ch.Backlog != 0 {
				t.Fatalf("instance %d class %s backlog %d after run end, want 0 (crash drop not recorded)",
					i, ch.Class, ch.Backlog)
			}
		}
	}
}

// TestClusterSLOAlertsTimeOrdered: when one step of the fleet crosses
// several window boundaries, the instances' alerts still enter the routed
// stream in boundary order — instance 0's later boundary never precedes
// instance 1's earlier one.
func TestClusterSLOAlertsTimeOrdered(t *testing.T) {
	for _, window := range []float64{1, 2, 5} {
		col := &obs.Collector{}
		cfg := sloClusterConfig(col, nil, nil)
		cfg.SLO.Window = window
		if _, err := New(cfg).Run(overloadedClusterWorkload()); err != nil {
			t.Fatal(err)
		}
		if err := obs.Validate(col.Events()); err != nil {
			t.Fatalf("window %v: %v", window, err)
		}
	}
}
