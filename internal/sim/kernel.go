package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/admit"
	"repro/internal/contention"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/txn"
)

// Kernel is one single-backend instance of the paper's RTDBMS model: S
// identical servers under preemptive-resume scheduling, with the optional
// admission, fault, validation, recorder and SLO layers of a Config. Every
// engine that runs one backend — Sim.Run, Sim.RunClosedLoop and the online
// executor — is a thin loop over it, so they share one decision loop by
// construction.
//
// The caller owns the arrival source and drives the kernel one event at a
// time:
//
//	for !k.Finished() {
//		at, err := k.Next(nextArrival) // dispatch; earliest next event
//		...                            // (the executor paces to at here)
//		k.Advance(at)                  // run to at; completion outcomes
//		...                            // k.Arrive each arrival due by at
//	}
//	k.Close()
//
// Next, Advance and Arrive are the decision loop, which must stay
// allocation-free; their hotpath markers make asetslint enforce that
// transitively over everything they reach, including every scheduling
// policy behind the Scheduler interface and every Sink behind the observer.
//
// The kernel enforces the check-out protocol documented on sched.Scheduler:
// every transaction obtained from Next is returned through OnPreempt or
// OnCompletion before the next Next call burst, and arrivals are delivered
// only while no transaction is checked out. An aborted transaction is the
// one exception: it stays checked out while it waits out its backoff and is
// returned through OnPreempt (with its remaining time reset) when the
// backoff expires.
type Kernel struct {
	set      *txn.Set
	s        sched.Scheduler
	servers  int
	maxSteps int
	recorder *trace.Recorder
	ctrl     admit.Controller
	inj      *fault.Injector
	rec      *fault.Recorder
	val      *contention.Validator
	crec     *contention.Recorder
	sloSink  *slo.Sink

	now       float64
	steps     int
	running   []*txn.Transaction // checked out onto a server until Advance
	completed []*txn.Transaction // committed by the latest Advance
	// stallSeen is the outage window whose entry was recorded, so the stall
	// event fires exactly once per window hit.
	stallSeen int
	c         Counts
}

// Counts is a snapshot of a kernel's progress.
type Counts struct {
	// Now is the kernel's simulated time; Running counts the transactions
	// checked out onto servers (none while arrivals are delivered).
	Now     float64
	Running int
	// Admitted, Done and Shed count arrivals the scheduler accepted,
	// transactions that committed, and arrivals the admission controller
	// rejected; Misses counts commits past the deadline.
	Admitted, Done, Shed, Misses int
	// SumTardiness and MaxTardiness aggregate the commits in commit order.
	SumTardiness, MaxTardiness float64
	// Aborts (crash losses included), Restarts, Stalls and Held come from
	// the fault injector; ValidateFails from commit-time validation.
	Aborts, Restarts, Stalls, Held, ValidateFails int
	// Backlog is the remaining work over admitted unfinished transactions;
	// Busy is the server time spent executing.
	Backlog, Busy float64
	// Degraded reports the admission controller's degradation mode.
	Degraded bool
}

// completionEpsilon absorbs float64 error when a slice boundary lands
// numerically on a completion instant.
const completionEpsilon = 1e-9

// NewKernel validates cfg's layers against set, resets the set, and wires
// the instrumentation: the SLO sink wraps cfg.Sink, sched.Instrument wraps s
// over it, and the fault and contention recorders emit through the wrapper.
// The fault plan's flash-crowd bursts mutate the set's arrival times here,
// so build the caller's arrival source afterwards.
func NewKernel(cfg Config, set *txn.Set, s sched.Scheduler) (Kernel, error) {
	servers, err := cfg.servers()
	if err != nil {
		return Kernel{}, err
	}
	n := set.Len()
	slots := make([]*txn.Transaction, 2*servers)
	k := Kernel{
		set: set, servers: servers, recorder: cfg.Recorder, ctrl: cfg.Admit, stallSeen: -1,
		running: slots[:0:servers], completed: slots[servers:servers],
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return Kernel{}, fmt.Errorf("sim: %w", err)
		}
		k.inj = fault.NewInjector(cfg.Faults, n)
		cfg.Faults.ApplyBursts(set)
	}
	if k.ctrl != nil {
		// Shedding cascades to dependents (a shed dependency can never
		// complete, so its dependents would deadlock the scheduler), which
		// requires dependencies to be delivered before their dependents.
		if err := admit.CheckArrivalOrder(set); err != nil {
			return Kernel{}, fmt.Errorf("sim: %w", err)
		}
	}
	set.ResetAll()
	// The SLO engine wraps the configured sink so it sees the event stream
	// exactly as emitted and injects alert transitions in stream order;
	// everything downstream (instrumentation, recorders) emits through it.
	sink := cfg.Sink
	if cfg.SLO != nil {
		if err := cfg.SLO.Validate(); err != nil {
			return Kernel{}, fmt.Errorf("sim: %w", err)
		}
		k.sloSink = slo.NewSink(slo.NewEngine(*cfg.SLO, cfg.Metrics), set, sink)
		sink = k.sloSink
	}
	// With neither a sink nor a registry the wrapper is s itself, so
	// uninstrumented runs pay nothing.
	k.s = sched.Instrument(s, sink, cfg.Metrics)
	k.s.Init(set)
	if k.inj != nil || k.ctrl != nil {
		// The recorders emit through the wrapper's staged event entry, so
		// their events stay interleaved with the decision-loop events in
		// true emission order even though sink delivery is batched.
		k.rec = fault.NewRecorder(sched.EventSink(k.s, sink), cfg.Metrics)
	}
	// A workload with read/write sets switches on commit-time validation
	// with re-execution, replacing the injector's random abort draws
	// (docs/CONTENTION.md); plain workloads keep the exact paper model.
	if k.val = contention.NewValidator(set); k.val != nil {
		k.crec = contention.NewRecorder(sched.EventSink(k.s, sink), cfg.Metrics)
	}
	if k.maxSteps = cfg.MaxSteps; k.maxSteps == 0 {
		// Every step completes a transaction, consumes an arrival, or idles
		// toward one; 8n+64 leaves ample slack. Aborts re-execute
		// transactions and stall windows add boundary events; every
		// validation failure re-executes a transaction, at most once per
		// other transaction's commit inside its open window.
		k.maxSteps = 8*n + 64
		if k.inj != nil {
			k.maxSteps = k.maxSteps*(1+cfg.Faults.MaxRestarts) + 16*len(cfg.Faults.Stalls)
		}
		if k.val != nil {
			k.maxSteps = 2*k.maxSteps + 2*n*n
		}
	}
	return k, nil
}

// Finished reports whether every transaction committed or was shed.
func (k *Kernel) Finished() bool { return k.c.Done+k.c.Shed >= k.set.Len() }

// Running returns the transactions Next checked out onto servers, valid
// until the following Advance.
func (k *Kernel) Running() []*txn.Transaction { return k.running }

// Counts returns a snapshot of the run's progress counters.
func (k *Kernel) Counts() Counts {
	c := k.c
	c.Now, c.Running = k.now, len(k.running)
	if k.inj != nil {
		c.Aborts, c.Restarts, c.Stalls, c.Held = k.inj.Aborts(), k.inj.Restarts(), k.inj.StallsEntered(), k.inj.Held()
	}
	if k.val != nil {
		c.ValidateFails = k.val.Fails()
	}
	return c
}

// AdmitState is the admission controller's view of a backend with servers
// servers in state c: the kernel's at each arrival, the executor's Probe
// mid-step.
func (c Counts) AdmitState(servers int) admit.State {
	return admit.State{
		Now: c.Now, Queued: c.Admitted - c.Done - c.Running, Running: c.Running, Servers: servers,
		Backlog: c.Backlog, Completed: c.Done, Misses: c.Misses,
	}
}

// Next takes one scheduling step: it fills the free servers from the
// scheduler and returns the instant of the next event — the earliest
// running completion, the caller's next arrival, a due restart or the next
// outage window's opening. Inside an outage window nothing is dispatched
// and the next event is the window's end (or an earlier arrival or
// restart). Next reports scheduler-contract violations, the step cap and a
// deadlock (nothing runnable and no future event) as errors.
//
//lint:hotpath
func (k *Kernel) Next(arrival float64) (float64, error) {
	if k.steps++; k.steps > k.maxSteps {
		return 0, k.fail(nil)
	}
	event := arrival
	if k.inj != nil {
		if w, ok := k.stalled(); ok {
			return min(w.End(), arrival, k.inj.NextRestart()), nil
		}
		event = min(event, k.inj.NextRestart(), k.inj.NextStallStart(k.now))
	}
	running := k.running[:0]
	for len(running) < k.servers {
		t := k.s.Next(k.now)
		if t == nil {
			break
		}
		if t.Finished || t.Arrival > k.now || slices.Contains(running, t) {
			return 0, k.fail(t)
		}
		t.Started = true
		if k.val != nil {
			// Open (or continue) the incarnation: the read snapshot is as
			// old as the incarnation's first dispatch.
			k.val.Begin(t)
		}
		running = append(running, t)
	}
	k.running = running
	if len(running) == 0 && math.IsInf(event, 1) {
		return 0, k.fail(nil)
	}
	for _, t := range running {
		event = min(event, k.now+t.Remaining)
	}
	return event, nil
}

// Advance runs the servers to at, then settles every transaction whose
// work is done — commit, validate-fail rewind or injector abort — preempts
// the rest back to the scheduler (an outage window opening at at first
// destroys their in-flight work if it is a crash), and re-queues the
// restarts due by at. It returns the transactions that committed, in a
// buffer reused by the next Advance.
//
//lint:hotpath
func (k *Kernel) Advance(at float64) []*txn.Transaction {
	dt := at - k.now
	for _, t := range k.running {
		if k.recorder != nil && dt > 0 {
			k.recorder.Record(t.ID, k.now, at)
		}
		t.Remaining -= dt
		k.c.Busy += dt
		k.c.Backlog -= dt
	}
	k.now = at
	done := k.completed[:0]
	if len(k.running) > 0 {
		still := k.running[:0]
		for _, t := range k.running {
			if t.Remaining > completionEpsilon {
				still = append(still, t)
			} else if k.commit(t) {
				done = append(done, t)
			}
		}
		// An outage window opening at this instant preempts the survivors;
		// a crash window additionally destroys their in-flight work.
		if w, ok := k.stalled(); ok && w.Kind == fault.Crash {
			for _, t := range still {
				k.rewind(t)
				if k.val != nil {
					// The in-flight incarnation died with its snapshot;
					// committed versions survive.
					k.val.Reset(t)
				}
				k.inj.RecordCrashLoss(t)
				k.rec.Abort(at, t, "crash", at)
			}
		}
		for _, t := range still {
			k.s.OnPreempt(at, t)
		}
		k.running = k.running[:0]
	}
	if k.inj != nil {
		for _, t := range k.inj.PopDueRestarts(at) {
			k.rec.Restart(at, t)
			k.s.OnPreempt(at, t)
		}
	}
	k.completed = done
	return done
}

// commit settles a transaction whose work is done and reports whether it
// committed. A failed commit-time validation rewinds it to full length and
// re-queues it at once (the next dispatch opens a fresh incarnation); an
// injector abort rewinds it and holds it checked out until its backoff
// expires.
func (k *Kernel) commit(t *txn.Transaction) bool {
	switch {
	case k.val != nil && !k.val.CommitCheck(t):
		k.rewind(t)
		k.crec.ValidateFail(k.now, t)
		k.s.OnPreempt(k.now, t)
		return false
	case k.val == nil && k.inj != nil && k.inj.AbortsAttempt(t):
		k.rewind(t)
		k.rec.Abort(k.now, t, "abort", k.inj.RecordAbort(k.now, t))
		return false
	}
	k.c.Backlog -= t.Remaining
	t.Remaining = 0
	t.Finished = true
	t.FinishTime = k.now
	k.c.Done++
	k.s.OnCompletion(k.now, t)
	tard := t.Tardiness()
	k.c.SumTardiness, k.c.MaxTardiness = k.c.SumTardiness+tard, max(k.c.MaxTardiness, tard)
	tardy := tard > 0
	if tardy {
		k.c.Misses++
	}
	if k.ctrl != nil {
		k.ctrl.Complete(t, tardy)
		if d := k.ctrl.Degraded(); d != k.c.Degraded {
			k.c.Degraded = d
			k.rec.Degrade(k.now, d)
		}
	}
	return true
}

// rewind restores t to its full length, returning the lost work to the
// backlog.
func (k *Kernel) rewind(t *txn.Transaction) {
	k.c.Backlog += t.Length - t.Remaining
	t.Remaining = t.Length
}

// stalled reports the outage window open at the kernel's time, recording
// its entry exactly once per window.
func (k *Kernel) stalled() (fault.Window, bool) {
	if k.inj == nil {
		return fault.Window{}, false
	}
	w, idx, ok := k.inj.InStall(k.now)
	if ok && idx != k.stallSeen {
		k.stallSeen = idx
		k.inj.RecordStallEntered()
		k.rec.StallEntered(k.now, w)
	}
	return w, ok
}

// Arrive delivers one arrival at the kernel's time: with an admission
// controller it is admitted or shed (with its dependents), otherwise it goes
// straight to the scheduler.
//
//lint:hotpath
func (k *Kernel) Arrive(t *txn.Transaction) {
	if k.ctrl != nil {
		// t.Shed marks an earlier cascade: a dependency was shed, so t could
		// never become ready.
		if t.Shed {
			k.c.Shed++
			k.rec.Shed(k.now, t, "cascade")
			return
		}
		if !k.ctrl.Admit(t, k.Counts().AdmitState(k.servers)) {
			admit.CascadeShed(k.set, t)
			k.c.Shed++
			k.rec.Shed(k.now, t, k.ctrl.Name())
			return
		}
	}
	k.c.Admitted++
	k.c.Backlog += t.Remaining
	k.s.OnArrival(k.now, t)
}

// Flush delivers the instrumentation's batched events and counts, so live
// readers see every decision taken so far.
func (k *Kernel) Flush() {
	if fl, ok := k.s.(sched.ObsFlusher); ok {
		fl.FlushObs()
	}
}

// Close ends the run's instrumentation: it flushes the batched buffers
// before any reader can snapshot the registry, then publishes the SLO
// engine's final gauges (the open partial window is never evaluated — the
// slo package's determinism contract). It returns the SLO evaluation, or
// nil without an SLO config.
func (k *Kernel) Close() *slo.State {
	k.Flush()
	if k.sloSink == nil {
		return nil
	}
	k.sloSink.Engine().Finish()
	st := k.sloSink.Engine().State()
	return &st
}

// Summary computes the finished run's performance summary and recycles the
// instrumentation wrapper: nothing retains it once the run is over (the
// caller owns the sink and the registry, not the wrapper).
func (k *Kernel) Summary() (*metrics.Summary, error) {
	sum, err := metrics.Compute(k.set, k.c.Busy)
	if err != nil {
		return nil, err
	}
	c := k.Counts()
	sum.Aborts, sum.Restarts, sum.Stalls, sum.ValidateFails = c.Aborts, c.Restarts, c.Stalls, c.ValidateFails
	sched.ReleaseObs(k.s)
	return sum, nil
}

// fail names why Next aborts the run: the step cap (a livelocked
// scheduler), nothing runnable with no future event (a deadlock, t nil), or
// the scheduler-contract violation of dispatching t.
//
//lint:coldpath error exit: livelock, deadlock and contract violations abort the run
func (k *Kernel) fail(t *txn.Transaction) error {
	switch {
	case k.steps > k.maxSteps:
		return fmt.Errorf("sim: exceeded %d scheduling steps with %d/%d transactions complete (scheduler livelock?)", k.maxSteps, k.c.Done, k.set.Len())
	case t == nil:
		return fmt.Errorf("sim: no ready transaction and no future arrivals with %d/%d complete (dependency deadlock?)", k.c.Done, k.set.Len())
	case t.Finished:
		return fmt.Errorf("sim: scheduler returned finished transaction %d", t.ID)
	case t.Arrival > k.now:
		return fmt.Errorf("sim: scheduler returned transaction %d before its arrival (%v > %v)", t.ID, t.Arrival, k.now)
	}
	return fmt.Errorf("sim: scheduler returned transaction %d to two servers", t.ID)
}

// Arrivals is the open-loop arrival source of Sim.Run and the executor: the
// undelivered transactions of a set by arrival time, ties by ID for
// determinism.
type Arrivals []*txn.Transaction

// NewArrivals orders set by its current arrival times.
func NewArrivals(set *txn.Set) Arrivals {
	a := slices.Clone(set.Txns)
	slices.SortFunc(a, func(x, y *txn.Transaction) int {
		return cmp.Or(cmp.Compare(x.Arrival, y.Arrival), cmp.Compare(x.ID, y.ID))
	})
	return a
}

// Next returns the earliest undelivered arrival time, or +Inf.
func (a Arrivals) Next() float64 {
	if len(a) == 0 {
		return math.Inf(1)
	}
	return a[0].Arrival
}

// Deliver hands k every arrival due by its current time.
func (a *Arrivals) Deliver(k *Kernel) {
	for len(*a) > 0 && (*a)[0].Arrival <= k.now {
		k.Arrive((*a)[0])
		*a = (*a)[1:]
	}
}
