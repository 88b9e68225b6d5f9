// Package cluster is the fault-tolerant fleet tier of the reproduction: a
// deterministic routing layer that assigns each arriving transaction to one
// of N instances, each owning its own priority queue, scheduler, admission
// controller and fault-injection plan — with instance-level fault domains
// layered on top of the per-transaction faults of internal/fault.
//
// An instance's crash window destroys the whole instance's work: the
// in-flight transaction, everything queued in its scheduler, and everything
// backing off toward it. The router detects the crash through the same
// deterministic window schedule (a health signal that is a pure function of
// simulated time), ejects the instance from the routing set via a circuit
// breaker, and fails the lost transactions over to surviving instances
// under a per-transaction retry budget with capped exponential backoff.
// Failed-over transactions restart from scratch (a new incarnation) but
// keep their original arrival time, so tardiness accounting stays honest:
// the SLA clock never resets because the operator's backend crashed.
//
// Determinism is the same contract as everywhere else in the repository:
// every routing, ejection and failover decision is a pure function of the
// configuration, the seeds and simulated time, so a fixed-seed routed run
// produces a byte-identical decision-event stream on every replay, serial
// or parallel (docs/ROBUSTNESS.md, docs/PARALLELISM.md).
package cluster

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/admit"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/txn"
)

// Retry is the failover budget of one cluster run: how many times a
// transaction lost to instance crashes may be re-enqueued, and how long it
// waits before each re-enqueue. The zero value selects DefaultRetry.
type Retry struct {
	// Budget caps the failovers a single transaction may consume; a
	// transaction losing its instance with an exhausted budget is
	// permanently lost (counted in Result.Lost, excluded from tardiness
	// aggregates like a shed transaction).
	Budget int `json:"budget"`
	// BackoffBase is the delay before the first failover re-enqueue; each
	// further failover of the same transaction doubles it.
	BackoffBase float64 `json:"backoff_base"`
	// BackoffCap bounds the exponential backoff (0 = uncapped).
	BackoffCap float64 `json:"backoff_cap"`
}

// DefaultRetry is the budget used when Config.Retry is the zero value.
var DefaultRetry = Retry{Budget: 3, BackoffBase: 0.25, BackoffCap: 2}

// backoff returns the re-enqueue delay after a transaction's k-th failover
// (k >= 1): BackoffBase doubled per prior failover, bounded by BackoffCap.
func (r Retry) backoff(k int) float64 {
	if r.BackoffBase == 0 || k < 1 {
		return 0
	}
	d := r.BackoffBase * math.Pow(2, float64(k-1))
	if r.BackoffCap > 0 && d > r.BackoffCap {
		d = r.BackoffCap
	}
	return d
}

// Validate rejects malformed budgets with the field-naming convention of
// fault.Plan.Validate.
func (r Retry) Validate() error {
	if r.Budget < 0 {
		return fmt.Errorf("cluster: retry budget %d must be non-negative", r.Budget)
	}
	if !txn.Finite(r.BackoffBase) || r.BackoffBase < 0 {
		return fmt.Errorf("cluster: retry backoff_base %v must be finite and non-negative", r.BackoffBase)
	}
	if !txn.Finite(r.BackoffCap) || r.BackoffCap < 0 {
		return fmt.Errorf("cluster: retry backoff_cap %v must be finite and non-negative (0 = uncapped)", r.BackoffCap)
	}
	if r.BackoffCap > 0 && r.BackoffCap < r.BackoffBase {
		return fmt.Errorf("cluster: retry backoff_cap %v is below backoff_base %v", r.BackoffCap, r.BackoffBase)
	}
	return nil
}

// Config configures a cluster run. Unlike sim.Config there is no valid zero
// value: Instances and NewScheduler are required.
type Config struct {
	// Instances is the fleet size N (>= 1). Each instance models one
	// single-server backend with its own queue.
	Instances int
	// Policy is the routing policy deciding which instance serves each
	// arriving or failing-over transaction. Policies may carry state (the
	// round-robin cursor), so concurrent runs must not share one; nil
	// selects a fresh round-robin.
	Policy Policy
	// NewScheduler builds one instance's scheduling policy. It is called
	// exactly once per instance per run: a crash re-initializes the
	// instance's own scheduler (sched.Scheduler.Init). Factories must not
	// share mutable state between calls.
	NewScheduler func() sched.Scheduler
	// NewAdmit, when non-nil, builds one instance's admission controller —
	// consulted with that instance's local state when the router places an
	// arrival there. Failover re-enqueues bypass admission: the work was
	// already accepted, and dropping it again would double-charge the
	// transaction for the operator's crash.
	NewAdmit func() admit.Controller
	// Faults holds one fault plan per instance (nil entries inject
	// nothing); its length must be zero or Instances. Crash windows in an
	// instance's plan destroy that whole instance's work — the fault-domain
	// semantics — where the single-backend simulator's crash destroys only
	// in-flight work. Flash-crowd bursts are a workload transform, not an
	// instance fault, and are rejected here.
	Faults []*fault.Plan
	// Retry is the failover budget; the zero value selects DefaultRetry.
	Retry Retry
	// NoFailover disables re-enqueueing entirely: crash-lost transactions
	// are permanently lost. This is the router-less strawman the cluster
	// benchmark measures failover against.
	NoFailover bool
	// RecoveryCooldown delays the circuit-breaker's half-open transition
	// past the crash window's end, modelling restart time.
	RecoveryCooldown float64
	// Sink, when non-nil, receives the routed decision-event stream —
	// the per-instance scheduling events interleaved with route/failover/
	// eject/recover — in one globally time-ordered sequence.
	Sink obs.Sink
	// Metrics, when non-nil, accumulates the run's counters (the
	// asets_sched_* and asets_fault_* families plus asets_cluster_*).
	Metrics *obs.Registry
	// SLO, when non-nil, attaches one SLO alert engine per instance (each
	// fault domain is its own alerting domain, labeled with the instance
	// index). Alert fire/resolve transitions ride the routed decision-event
	// stream in time order; per-instance gauges land in Metrics; a Fleet's
	// Health serves the aggregate fleet rollup.
	SLO *slo.Config

	// status, set only by NewFleet, is the board live readers read the
	// fleet through. The run holds its lock while it steps and releases it
	// around pace. Nil for pure simulation runs, which take no lock.
	status *statusBoard
	// pace, set only by Fleet.Run, is called before the engine advances to
	// a future instant — the live tier's wall-clock pacing hook. Returning
	// an error aborts the run (context cancellation). The staged events are
	// delivered to Sink before each call, so live readers see every
	// decision up to the instant the fleet pauses.
	pace func(next float64) error
	// instant marks a pace that never waits (a Fleet on a clock for which
	// executor.Waits is false): the engine then delivers in full batches,
	// as without pace.
	instant bool
}

// validate checks the configuration against the workload, returning the
// effective retry budget and the step cap — a livelock safety net on
// scheduling decisions, scaled by the fleet, the retry budget and the fault
// plans.
//
//lint:coldpath config validation runs once before the event loop
func (c *Config) validate(set *txn.Set) (Retry, int, error) {
	retry, err := c.check()
	if err != nil {
		return Retry{}, 0, err
	}
	if !set.Independent() {
		i := slices.IndexFunc(set.Txns, func(t *txn.Transaction) bool { return !t.Independent() })
		return Retry{}, 0, fmt.Errorf("cluster: transaction %d has dependencies; the cluster tier routes independent transactions only", set.Txns[i].ID)
	}
	scale, windows := 1+retry.Budget, 0
	for _, p := range c.Faults {
		if p != nil {
			scale = max(scale, 1+retry.Budget+p.MaxRestarts)
			windows += len(p.Stalls)
		}
	}
	// Each instance adds 64 steps, four windows' worth. Validation failures
	// re-execute from scratch; each failure needs a distinct conflicting
	// commit inside the victim's open window, so a per-instance population
	// of at most n bounds the extra steps quadratically, as on a single
	// backend.
	return retry, sim.StepCap(set.Len(), scale, windows+4*c.Instances, set.Keyed()), nil
}

// instance is the kernel configuration of instance i. The router calls
// each instance's Next at most once per step it caps, so the instance needs
// no cap of its own. Each fault domain gets its own SLO engine, labeled by
// the name the router passes to sim.NewInstance.
//
//lint:coldpath per-instance wiring runs once before the event loop
func (c *Config) instance(i int) sim.Config {
	kc := sim.Config{Metrics: c.Metrics, SLO: c.SLO}
	if c.NewAdmit != nil {
		kc.Admit = c.NewAdmit()
	}
	if len(c.Faults) > 0 && !c.Faults[i].Zero() {
		kc.Faults = c.Faults[i]
	}
	return kc
}

// check validates the configuration's own fields, returning the effective
// retry budget.
func (c *Config) check() (Retry, error) {
	if c.Instances < 1 {
		return Retry{}, fmt.Errorf("cluster: instances %d must be positive", c.Instances)
	}
	if c.NewScheduler == nil {
		return Retry{}, fmt.Errorf("cluster: no scheduler factory")
	}
	if len(c.Faults) != 0 && len(c.Faults) != c.Instances {
		return Retry{}, fmt.Errorf("cluster: %d fault plans for %d instances (need none or one per instance)", len(c.Faults), c.Instances)
	}
	for i, p := range c.Faults {
		if p == nil {
			continue
		}
		if err := p.Validate(); err != nil {
			return Retry{}, fmt.Errorf("cluster: instance %d: %w", i, err)
		}
		if len(p.Bursts) > 0 {
			return Retry{}, fmt.Errorf("cluster: instance %d fault plan has flash-crowd bursts; bursts transform the shared workload, not one instance — apply them to the set before the run", i)
		}
	}
	retry := c.Retry
	if retry == (Retry{}) {
		retry = DefaultRetry
	}
	if err := retry.Validate(); err != nil {
		return Retry{}, err
	}
	if !txn.Finite(c.RecoveryCooldown) || c.RecoveryCooldown < 0 {
		return Retry{}, fmt.Errorf("cluster: recovery cooldown %v must be finite and non-negative", c.RecoveryCooldown)
	}
	if c.SLO != nil {
		if err := c.SLO.Validate(); err != nil {
			return Retry{}, fmt.Errorf("cluster: %w", err)
		}
	}
	return retry, nil
}
