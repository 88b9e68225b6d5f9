package contention

import (
	"repro/internal/obs"
	"repro/internal/txn"
)

// Metric names of the contention layer; the taxonomy is documented in
// docs/CONTENTION.md and docs/OBSERVABILITY.md.
const (
	// MetricValidateFails counts commit-time validation failures (each one
	// forces a re-execution from scratch).
	MetricValidateFails = "asets_contention_validate_fails_total"
)

// Recorder fans validation decisions into the unified instrumentation
// layer: one typed obs.Event per validation failure plus the matching
// registry count. Either output may be absent — a nil sink drops events, a
// nil registry drops counts — mirroring fault.Recorder, whose stream these
// events interleave with.
type Recorder struct {
	sink  obs.Sink
	inst  string // the instance of a multi-instance run, "" for one backend
	fails *obs.Counter
}

// NewRecorder wires a recorder to sink and reg (either may be nil). inst
// names the instance of a multi-instance run in the event details, or is
// empty for a single backend.
//
//lint:coldpath recorder wiring is per-run setup
func NewRecorder(sink obs.Sink, reg *obs.Registry, inst string) *Recorder {
	if sink == nil {
		sink = obs.Discard
	}
	r := &Recorder{sink: sink, inst: inst}
	if reg != nil {
		r.fails = reg.Counter(MetricValidateFails, "commit-time validation failures forcing re-execution")
	}
	return r
}

// ValidateFail records a validation failure of t at now. Remaining carries
// the full length the re-executed incarnation must serve (the rewind
// happens at the call site, so t.Remaining itself may not be rewound yet).
func (r *Recorder) ValidateFail(now float64, t *txn.Transaction) {
	if r.fails != nil {
		r.fails.Inc()
	}
	r.sink.Emit(obs.Event{
		Time: now, Kind: obs.KindValidateFail, Txn: t.ID, Workflow: -1,
		Deadline: t.Deadline, Remaining: t.Length, Detail: r.inst,
	})
}
