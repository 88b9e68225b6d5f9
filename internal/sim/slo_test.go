package sim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/workload"
)

// sloRun runs an overloaded weighted workload under EDF with the default SLO
// spec on short windows, delivering the stream to sink.
func sloRun(t *testing.T, sink obs.Sink) {
	t.Helper()
	set := workload.MustGenerate(workload.Default(1.4, 5).WithN(400).WithWeights())
	cfg := Config{Sink: sink, SLO: &slo.Config{Spec: slo.DefaultSpec(), Window: 20}}
	if _, err := New(cfg).Run(set, sched.NewEDF()); err != nil {
		t.Fatal(err)
	}
}

// TestKernelInjectsAlertsInStreamOrder: the kernel closes its SLO windows
// before any event of a new instant, so an alert stamped with boundary b
// follows every decision event before b and precedes every one at or past
// it.
func TestKernelInjectsAlertsInStreamOrder(t *testing.T) {
	col := &obs.Collector{}
	sloRun(t, col)
	evs := col.Events()
	alerts := 0
	for i, ev := range evs {
		if ev.Kind != obs.KindAlertFire && ev.Kind != obs.KindAlertResolve {
			continue
		}
		alerts++
		for _, before := range evs[:i] {
			if before.Time > ev.Time || (before.Time == ev.Time && before.Kind != obs.KindAlertFire && before.Kind != obs.KindAlertResolve) {
				t.Fatalf("%v at %v follows %v at %v", ev.Kind, ev.Time, before.Kind, before.Time)
			}
		}
		for _, after := range evs[i+1:] {
			if after.Time < ev.Time {
				t.Fatalf("%v at %v precedes %v at %v", ev.Kind, ev.Time, after.Kind, after.Time)
			}
		}
	}
	if alerts == 0 {
		t.Fatal("no alert transition: the fixture tests nothing")
	}
	if err := obs.Validate(evs); err != nil {
		t.Fatal(err)
	}
}

// plainSink hides the Collector's batch and shared entry points, so the
// observer delivers to it one event at a time.
type plainSink struct{ col *obs.Collector }

func (s plainSink) Emit(ev obs.Event) { s.col.Emit(ev) }

// TestObserverBatchMatchesSingle: the observer's batched delivery, alerts
// included, is exactly the stream event-at-a-time delivery produces.
func TestObserverBatchMatchesSingle(t *testing.T) {
	batched, single := &obs.Collector{}, &obs.Collector{}
	sloRun(t, batched)
	sloRun(t, plainSink{single})
	a, b := batched.Events(), single.Events()
	if len(a) != len(b) {
		t.Fatalf("batched %d events, single %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d: batched %+v, single %+v", i, a[i], b[i])
		}
	}
}
