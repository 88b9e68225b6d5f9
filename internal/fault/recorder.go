package fault

import (
	"repro/internal/obs"
	"repro/internal/txn"
)

// Metric names of the fault-injection and overload-protection layer; the
// taxonomy is documented in docs/ROBUSTNESS.md and docs/OBSERVABILITY.md.
const (
	MetricAborts   = "asets_fault_aborts_total"
	MetricRestarts = "asets_fault_restarts_total"
	MetricStalls   = "asets_fault_stalls_total"
	MetricShed     = "asets_admit_shed_total"
	MetricDegraded = "asets_admit_degraded"
)

// Recorder fans fault and admission decisions into the unified
// instrumentation layer: one typed obs.Event per decision plus the matching
// registry update. Either output may be absent — a nil sink drops events, a
// nil registry drops counts — so uninstrumented fault runs pay almost
// nothing. Events are stamped with simulated time only, exactly like the
// scheduler decision stream they interleave with.
type Recorder struct {
	sink obs.Sink
	// inst names the instance of a multi-instance run in stall and degrade
	// details ("" for a single backend); stallDetail holds the interned
	// stall details per window kind.
	inst        string
	stallDetail [2]string
	aborts      *obs.Counter
	restarts    *obs.Counter
	stalls      *obs.Counter
	sheds       *obs.Counter
	degraded    *obs.Gauge
}

// NewRecorder wires a recorder to sink and reg (either may be nil). inst
// names the instance of a multi-instance run, or is empty for a single
// backend: it tags stall details ("crash@2") and degrade details, and labels
// the degradation gauge, so each instance reports its own controller.
//
//lint:coldpath recorder wiring is per-run setup
func NewRecorder(sink obs.Sink, reg *obs.Registry, inst string) *Recorder {
	if sink == nil {
		sink = obs.Discard
	}
	r := &Recorder{sink: sink, inst: inst}
	for _, k := range []WindowKind{Stall, Crash} {
		r.stallDetail[k] = k.String()
		if inst != "" {
			r.stallDetail[k] += "@" + inst
		}
	}
	if reg != nil {
		r.aborts = reg.Counter(MetricAborts, "transaction aborts (including crash losses)")
		r.restarts = reg.Counter(MetricRestarts, "aborted transactions re-queued after backoff")
		r.stalls = reg.Counter(MetricStalls, "backend stall/crash windows entered")
		r.sheds = reg.Counter(MetricShed, "transactions shed by the admission controller")
		degraded := MetricDegraded
		if inst != "" {
			degraded = obs.MetricName(degraded, "inst", inst)
		}
		r.degraded = reg.Gauge(degraded, "1 while the admission controller is in degradation mode")
	}
	return r
}

// Abort records an abort of t at now. detail distinguishes the injector's
// keyed aborts ("abort") from crash losses ("crash"); retryAt carries the
// restart instant for keyed aborts (crash losses re-queue immediately).
func (r *Recorder) Abort(now float64, t *txn.Transaction, detail string, retryAt float64) {
	if r.aborts != nil {
		r.aborts.Inc()
	}
	r.sink.Emit(obs.Event{
		Time: now, Kind: obs.KindAbort, Txn: t.ID, Workflow: -1,
		Deadline: t.Deadline, Remaining: retryAt - now, Detail: detail,
	})
}

// Restart records t re-entering the scheduler after its backoff expired.
func (r *Recorder) Restart(now float64, t *txn.Transaction) {
	if r.restarts != nil {
		r.restarts.Inc()
	}
	r.sink.Emit(obs.Event{
		Time: now, Kind: obs.KindRestart, Txn: t.ID, Workflow: -1,
		Deadline: t.Deadline, Remaining: t.Remaining,
	})
}

// StallEntered records the backend entering an outage window. The detail is
// the window kind, tagged with the instance in a multi-instance run.
func (r *Recorder) StallEntered(now float64, w Window) {
	if r.stalls != nil {
		r.stalls.Inc()
	}
	r.sink.Emit(obs.Event{
		Time: now, Kind: obs.KindStall, Txn: -1, Workflow: -1,
		Remaining: w.Duration, Detail: r.stallDetail[w.Kind],
	})
}

// Shed records the admission controller rejecting t at arrival.
func (r *Recorder) Shed(now float64, t *txn.Transaction, controller string) {
	if r.sheds != nil {
		r.sheds.Inc()
	}
	r.sink.Emit(obs.Event{
		Time: now, Kind: obs.KindShed, Txn: t.ID, Workflow: -1,
		Deadline: t.Deadline, Remaining: t.Remaining, Detail: controller,
	})
}

// Degrade records the admission controller crossing into (on=true) or out of
// (on=false) degradation mode.
func (r *Recorder) Degrade(now float64, on bool) {
	kind := obs.KindDegradeExit
	v := 0.0
	if on {
		kind = obs.KindDegradeEnter
		v = 1
	}
	if r.degraded != nil {
		r.degraded.Set(v)
	}
	r.sink.Emit(obs.Event{Time: now, Kind: kind, Txn: -1, Workflow: -1, Detail: r.inst})
}
