package cluster

import (
	"repro/internal/metrics"
	"repro/internal/slo"
)

// InstanceResult is one instance's share of a cluster run.
type InstanceResult struct {
	// Routed counts arrivals the router placed here; FailoversIn counts
	// crash-lost transactions re-enqueued here from other instances.
	Routed      int `json:"routed"`
	FailoversIn int `json:"failovers_in"`
	// CrashLost counts transactions this instance's crash windows destroyed
	// (in-flight, queued and backing off).
	CrashLost int `json:"crash_lost"`
	// Completed and Misses count transactions finished here and those that
	// finished past their deadline.
	Completed int `json:"completed"`
	Misses    int `json:"misses"`
	// Busy is the time this instance's server spent serving.
	Busy float64 `json:"busy"`
}

// Result is the outcome of one cluster run.
type Result struct {
	// Summary aggregates the completed transactions exactly like a
	// single-backend run; permanently lost transactions are excluded from
	// its tardiness aggregates (they are counted in Summary.Shed alongside
	// admission sheds, and separated again here).
	Summary *metrics.Summary
	// Routes counts routing decisions for fresh arrivals; Failovers counts
	// crash-lost transactions re-enqueued to survivors; Lost counts
	// transactions dropped for good (budget exhausted or NoFailover).
	Routes    int `json:"routes"`
	Failovers int `json:"failovers"`
	Lost      int `json:"lost"`
	// Shed counts admission-controller rejections (Summary.Shed - Lost).
	Shed int `json:"shed"`
	// Misses counts completions past their deadline, across instances.
	Misses int `json:"misses"`
	// Ejections and Recoveries count circuit-breaker transitions.
	Ejections  int `json:"ejections"`
	Recoveries int `json:"recoveries"`
	// Instances holds the per-instance breakdown, in index order.
	Instances []InstanceResult `json:"instances"`
	// SLO holds each instance's final SLO engine state, in index order; nil
	// when Config.SLO was unset.
	SLO []slo.State `json:"slo,omitempty"`
}

// EffectiveMissRatio is the SLA measure the failover gate is judged on: a
// permanently lost transaction is an unbounded SLA violation, so it counts
// as a miss over the population the cluster accepted (completed + lost).
// Admission sheds are excluded, exactly as in metrics.Summary.MissRatio.
func (r *Result) EffectiveMissRatio() float64 {
	served := r.Summary.N + r.Lost
	if served == 0 {
		return 0
	}
	return float64(r.Misses+r.Lost) / float64(served)
}

// result closes every instance — final SLO gauges, flushed events — and
// assembles the run's outcome.
//
//lint:coldpath end-of-run assembly
func (r *router) result() (*Result, error) {
	res := &Result{
		Routes: r.routes, Failovers: r.failovers, Lost: r.lost, Shed: r.shed,
		Ejections: r.ejections, Recoveries: r.recoveries,
		Instances: make([]InstanceResult, len(r.insts)),
	}
	var busy float64
	var faults metrics.Summary
	for i := range r.insts {
		in := &r.insts[i]
		if st := in.k.Close(); st != nil {
			res.SLO = append(res.SLO, *st)
		}
		c := in.k.Counts()
		busy += c.Busy
		res.Misses += c.Misses
		faults.Aborts += c.Aborts
		faults.Restarts += c.Restarts
		faults.Stalls += c.Stalls
		faults.ValidateFails += c.ValidateFails
		res.Instances[i] = InstanceResult{
			Routed: c.Admitted, FailoversIn: in.failoversIn, CrashLost: in.crashLost,
			Completed: c.Done, Misses: c.Misses, Busy: c.Busy,
		}
	}
	summary, err := metrics.Compute(r.set, busy)
	if err != nil {
		return nil, err
	}
	summary.Aborts, summary.Restarts, summary.Stalls, summary.ValidateFails = faults.Aborts, faults.Restarts, faults.Stalls, faults.ValidateFails
	res.Summary = summary
	r.publish(true)
	return res, nil
}
