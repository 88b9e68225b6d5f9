package cluster

import (
	"repro/internal/obs"
	"repro/internal/txn"
)

// Metric names of the cluster tier; the routing/failover taxonomy is
// documented in docs/ROBUSTNESS.md.
const (
	MetricRouted     = "asets_cluster_routed_total"
	MetricFailovers  = "asets_cluster_failovers_total"
	MetricLost       = "asets_cluster_lost_total"
	MetricEjections  = "asets_cluster_ejections_total"
	MetricRecoveries = "asets_cluster_recoveries_total"
	MetricHealthy    = "asets_cluster_healthy_instances"
)

// recorder emits the routing tier's own decisions — route, failover, loss,
// ejection and recovery — and counts them. Everything per instance comes
// from the instance kernels; the recorder emits through the same staged
// observer entry they share, so the routed stream stays totally ordered by
// emission.
type recorder struct {
	sink       obs.Sink
	routed     *obs.Counter
	failovers  *obs.Counter
	lost       *obs.Counter
	ejections  *obs.Counter
	recoveries *obs.Counter
	healthy    *obs.Gauge
}

// newRecorder wires a recorder to sink and reg (either may be nil).
//
//lint:coldpath recorder wiring is per-run setup
func newRecorder(sink obs.Sink, reg *obs.Registry) *recorder {
	if sink == nil {
		sink = obs.Discard
	}
	r := &recorder{sink: sink}
	if reg != nil {
		r.routed = reg.Counter(MetricRouted, "transactions assigned to an instance by the routing tier")
		r.failovers = reg.Counter(MetricFailovers, "crash-lost transactions re-enqueued to a surviving instance")
		r.lost = reg.Counter(MetricLost, "transactions permanently lost (retry budget exhausted or failover disabled)")
		r.ejections = reg.Counter(MetricEjections, "instances ejected by the circuit-breaker")
		r.recoveries = reg.Counter(MetricRecoveries, "ejected instances half-opened after recovery")
		r.healthy = reg.Gauge(MetricHealthy, "instances currently accepting routed work")
	}
	return r
}

// Route records the router assigning an arriving transaction to an
// instance; the event precedes the arrival it causes.
func (r *recorder) Route(now float64, t *txn.Transaction, inst string) {
	if r.routed != nil {
		r.routed.Inc()
	}
	r.sink.Emit(obs.Event{
		Time: now, Kind: obs.KindRoute, Txn: t.ID, Workflow: -1,
		Deadline: t.Deadline, Remaining: t.Remaining, Detail: inst,
	})
}

// Failover records a crash-lost transaction landing on a new instance
// (detail "from->to").
func (r *recorder) Failover(now float64, t *txn.Transaction, detail string) {
	if r.failovers != nil {
		r.failovers.Inc()
	}
	r.sink.Emit(obs.Event{
		Time: now, Kind: obs.KindFailover, Txn: t.ID, Workflow: -1,
		Deadline: t.Deadline, Remaining: t.Remaining, Detail: detail,
	})
}

// Lost records a crash-lost transaction dropped for good: its retry budget
// is exhausted (or failover is disabled). The event kind is still failover
// — the routing tier made the decision — with the terminal detail "lost".
func (r *recorder) Lost(now float64, t *txn.Transaction) {
	if r.lost != nil {
		r.lost.Inc()
	}
	r.sink.Emit(obs.Event{
		Time: now, Kind: obs.KindFailover, Txn: t.ID, Workflow: -1,
		Deadline: t.Deadline, Detail: "lost",
	})
}

// Eject records the circuit-breaker removing a crashed instance from the
// routing set.
func (r *recorder) Eject(now float64, inst string, healthy int) {
	if r.ejections != nil {
		r.ejections.Inc()
		r.healthy.Set(float64(healthy))
	}
	r.sink.Emit(obs.Event{Time: now, Kind: obs.KindEject, Txn: -1, Workflow: -1, Detail: inst})
}

// Recover records an ejected instance's breaker half-opening after its
// outage ended.
func (r *recorder) Recover(now float64, inst string, healthy int) {
	if r.recoveries != nil {
		r.recoveries.Inc()
		r.healthy.Set(float64(healthy))
	}
	r.sink.Emit(obs.Event{Time: now, Kind: obs.KindRecover, Txn: -1, Workflow: -1, Detail: inst})
}
