// Package executor runs a scheduling policy over live wall-clock time: the
// online counterpart of the discrete-event simulator. A workload's arrivals
// are replayed in real time (scaled by Options.TimeScale), the configured
// scheduler decides what the single backend "database" executes, and an
// arrival can preempt the running transaction exactly as in the simulator's
// preemptive-resume model.
//
// The executor exists for two reasons. First, it demonstrates that the
// policies in this repository are implementable online — every scheduling
// decision uses only information available at decision time. Second, it
// powers the asetsweb demo server, which exposes a live dashboard of an
// ASETS*-scheduled transaction stream.
//
// Time handling: the executor runs the simulator's single-backend event
// kernel (sim.Kernel). Scheduling decisions and tardiness bookkeeping
// run on event time inside the kernel, while wall-clock sleeps only pace
// execution toward each event's scheduled instant. Timer overshoot therefore
// puts the executor briefly into catch-up mode instead of silently injecting
// extra load, and a paced run reproduces the discrete-event simulator's
// schedule, event stream and tardiness on the same workload by construction
// — the cross-engine matrix test asserts it byte for byte.
//
// All wall-clock access goes through the Clock seam (Options.Clock): the
// production RealClock paces against the host clock, while the FakeClock
// replays the identical schedule instantly and deterministically. No other
// wall-clock read exists in the executor, keeping the determinism policy of
// docs/DETERMINISM.md intact end to end.
//
// Faults and overload protection (docs/ROBUSTNESS.md) are the kernel's, so
// they thread through the same event-time model: Options.Faults injects
// aborts, backend outage windows and flash crowds at simulated instants (so a
// FakeClock replay of a fault run is still bit-deterministic), and
// Options.Admit sheds arrivals before they reach the scheduler.
package executor

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/txn"
)

// Options configures an Executor.
type Options struct {
	// TimeScale is the wall-clock duration of one simulated time unit.
	// Default 200 microseconds: a 1000-transaction Table I workload at
	// utilization 0.8 replays in a few seconds.
	TimeScale time.Duration
	// OnComplete, when non-nil, is called from the executor goroutine after
	// every completion with the transaction and its finish time in
	// simulated units.
	OnComplete func(t *txn.Transaction, finish float64)
	// Clock paces the replay. Nil selects RealClock. Injecting a FakeClock
	// makes Run instantaneous and bit-for-bit deterministic — the only
	// wall-clock access in the executor goes through this seam.
	Clock Clock
	// Sink, when non-nil, receives the typed decision-event stream from
	// the scheduler boundary. Events are stamped with the executor's event
	// time (simulated units anchored at the Clock seam), never with a raw
	// host-clock read, so a FakeClock replay emits a bit-identical stream.
	Sink obs.Sink
	// Metrics, when non-nil, accumulates the replay's counters, gauges and
	// histograms; the asetsweb /metrics endpoint exports it live.
	Metrics *obs.Registry
	// Faults, when non-nil, is the fault plan the replay executes: keyed
	// abort/restart decisions, backend stall/crash windows at simulated
	// instants, and flash-crowd arrival compression (applied to the set in
	// New, before the scheduler sees it). Invalid plans surface as an error
	// from Run.
	Faults *fault.Plan
	// Admit, when non-nil, is consulted on every arrival; rejected
	// transactions are marked Shed and never reach the scheduler. All
	// controller calls are serialized under the executor's lock, so Probe
	// may interrogate the same controller from other goroutines.
	Admit admit.Controller
	// SLO, when non-nil, attaches the deterministic SLO alert engine to the
	// replay: burn-rate rules evaluate at tumbling-window boundaries of
	// simulated time, alert fire/resolve transitions are injected into Sink
	// in stream order, and the per-class gauges land in Metrics. A FakeClock
	// replay emits a bit-identical alert stream (docs/OBSERVABILITY.md).
	SLO *slo.Config
}

// Stats is a point-in-time snapshot of executor progress, safe to read
// while the executor runs.
type Stats struct {
	// Now is the current simulated time.
	Now float64
	// Submitted and Completed count transactions the scheduler accepted and
	// finished; shed transactions are never submitted.
	Submitted int
	Completed int
	// Running is the ID of the executing transaction, or -1.
	Running txn.ID
	// SumTardiness and MaxTardiness aggregate finished transactions.
	SumTardiness float64
	MaxTardiness float64
	// Misses counts finished transactions that overran their deadline.
	Misses int
	// Shed counts arrivals the admission controller rejected.
	Shed int
	// Aborts, Restarts and Stalls count injected faults.
	Aborts   int
	Restarts int
	Stalls   int
	// ValidateFails counts commit-time validation failures — contention-
	// driven re-executions (zero without a contended workload).
	ValidateFails int
	// Held counts aborted transactions currently waiting out a backoff.
	Held int
	// Backlog is the remaining work (simulated units) over admitted
	// unfinished transactions — the quantity feasibility admission reasons
	// about, and the basis of the server's Retry-After hint.
	Backlog float64
	// Degraded reports whether the admission controller is in degradation
	// mode.
	Degraded bool
}

// AvgTardiness returns the running average tardiness of completed
// transactions.
func (s Stats) AvgTardiness() float64 {
	if s.Completed == 0 {
		return 0
	}
	return s.SumTardiness / float64(s.Completed)
}

// Executor replays one workload through a scheduler in real time. Create
// with New, drive with Run, observe with Stats.
type Executor struct {
	set     *txn.Set
	opts    Options
	k       sim.Kernel
	initErr error

	mu      sync.Mutex
	ctrl    admit.Controller // guarded by mu: the run loop and Probe both call it
	counts  sim.Counts       // guarded by mu: the kernel's counters, copied once per step
	running txn.ID           // guarded by mu: the dispatched transaction, or -1
	done    bool             // guarded by mu
}

// New prepares an executor over the simulator's single-backend kernel. The
// scheduler must be freshly constructed (its Init is called here) and must
// not be shared with another executor or simulation. A fault plan's
// flash-crowd bursts mutate the set's arrival times here, before the
// scheduler sees the workload; an invalid plan is reported by Run.
func New(s sched.Scheduler, set *txn.Set, opts Options) *Executor {
	if opts.TimeScale <= 0 {
		opts.TimeScale = 200 * time.Microsecond
	}
	if opts.Clock == nil {
		opts.Clock = RealClock{}
	}
	e := &Executor{set: set, opts: opts, ctrl: opts.Admit, running: -1}
	cfg := sim.Config{Sink: opts.Sink, Metrics: opts.Metrics, Faults: opts.Faults, SLO: opts.SLO}
	if opts.Admit != nil {
		cfg.Admit = lockedController{e}
	}
	e.k, e.initErr = sim.NewKernel(cfg, set, s)
	return e
}

// lockedController is the kernel's view of the admission controller: every
// call is serialized with Probe and AdmissionDegraded under the executor's
// lock.
type lockedController struct{ e *Executor }

func (c lockedController) Name() string {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	return c.e.ctrl.Name()
}

func (c lockedController) Admit(t *txn.Transaction, st admit.State) bool {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	return c.e.ctrl.Admit(t, st)
}

func (c lockedController) Complete(t *txn.Transaction, tardy bool) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	c.e.ctrl.Complete(t, tardy)
}

func (c lockedController) Degraded() bool { return c.e.AdmissionDegraded() }

// Stats returns a consistent snapshot of progress.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return statsOf(e.counts, e.running)
}

// statsOf renders the kernel's counters as Stats.
func statsOf(c sim.Counts, running txn.ID) Stats {
	return Stats{
		Now: c.Now, Submitted: c.Admitted, Completed: c.Done, Running: running,
		SumTardiness: c.SumTardiness, MaxTardiness: c.MaxTardiness, Misses: c.Misses, Shed: c.Shed,
		Aborts: c.Aborts, Restarts: c.Restarts, Stalls: c.Stalls, ValidateFails: c.ValidateFails,
		Held: c.Held, Backlog: c.Backlog, Degraded: c.Degraded,
	}
}

// Done reports whether Run has finished.
func (e *Executor) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done
}

// Probe evaluates the admission controller against the executor's live state
// for a candidate transaction, without registering anything: the decision the
// controller *would* make if t arrived now. With no controller configured it
// always admits. The server's POST /api/submit endpoint is built on this.
func (e *Executor) Probe(t *txn.Transaction) (bool, Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := statsOf(e.counts, e.running)
	if e.ctrl == nil {
		return true, st
	}
	return e.ctrl.Admit(t, e.counts.AdmitState(1)), st
}

// AdmissionDegraded reports whether the admission controller is currently in
// degradation mode (always false without a controller). It asks the
// controller directly, so a controller that starts out degraded is reported
// before the replay's first completion.
func (e *Executor) AdmissionDegraded() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctrl != nil && e.ctrl.Degraded()
}

// Run replays the workload to completion or until ctx is cancelled. It
// returns the number of completed transactions and an error if the context
// ended the run early or the scheduler misbehaved. Run paces the kernel: it
// walks the workload in arrival order like sim.Run, and before each advance
// sleeps on the Clock until the event's scaled wall instant.
func (e *Executor) Run(ctx context.Context) (int, error) {
	if e.initErr != nil {
		return 0, fmt.Errorf("executor: %w", e.initErr)
	}
	k, arr := &e.k, sim.NewArrivals(e.set)
	start := e.opts.Clock.Now()
	defer func() {
		// Drain the instrumentation and finish the SLO engine before the run
		// is marked done, so anything reading the registry afterwards sees
		// every observation; this goroutine is the only emitter.
		k.Close()
		e.publish(true)
	}()
	for !k.Finished() {
		at, err := k.Next(arr.Next())
		if err == nil && math.IsInf(at, 1) {
			err = k.Deadlock()
		}
		if err != nil {
			return k.Counts().Done, fmt.Errorf("executor: %w", err)
		}
		e.publish(false)
		// Pace to the event's wall instant, honouring cancellation. Staged
		// events are delivered first, so live readers (the ring, SSE
		// streams) see every decision up to the instant the executor pauses.
		k.Flush()
		err = ctx.Err()
		if d := start.Add(time.Duration(at * float64(e.opts.TimeScale))).Sub(e.opts.Clock.Now()); d > 0 {
			err = e.opts.Clock.Sleep(ctx, d)
		}
		if err != nil {
			return k.Counts().Done, err
		}
		for _, t := range k.Advance(at) {
			if e.opts.OnComplete != nil {
				e.opts.OnComplete(t, at)
			}
		}
		arr.Deliver(k)
	}
	return k.Counts().Done, nil
}

// publish copies the kernel's counters for Stats and Probe, once per step:
// as the executor starts pacing toward the next event (with the dispatched
// transaction running), and when the run ends.
func (e *Executor) publish(done bool) {
	running := txn.ID(-1)
	if r := e.k.Running(); len(r) > 0 && !done {
		running = r[0].ID
	}
	e.mu.Lock()
	e.counts, e.running, e.done = e.k.Counts(), running, done
	e.mu.Unlock()
}
