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
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/txn"
)

// Kernel is one single-backend instance of the paper's RTDBMS model: S
// identical servers under preemptive-resume scheduling, with the optional
// admission, fault, validation, recorder and SLO layers of a Config. Every
// engine runs its backends on kernels — Sim.Run, Sim.RunClosedLoop and the
// online executor one kernel, the cluster one per instance — so they share
// one decision loop by construction. The kernel is the only emitter of its
// decision events.
//
// The caller owns the arrival source and the clock, and drives the kernel
// one event at a time. A single backend runs
//
//	for !k.Finished() {
//		at, err := k.Next(nextArrival) // dispatch; earliest next event
//		...                            // +Inf: deadlock; the executor paces to at here
//		k.Advance(at)                  // Settle, Return, Restarts; completion outcomes
//		...                            // k.Arrive each arrival due by at
//	}
//	k.Close()
//
// and a fleet composes the same operations differently: Settle at every
// event, Return only on an instance that received work, Adopt for a
// failover, Drain for a crash.
//
// Next, Settle, Return, Restarts, Arrive and Adopt are the decision loop,
// which must stay allocation-free; their hotpath markers make asetslint
// enforce that transitively over everything they reach, including every
// scheduling policy behind the Scheduler interface and every Sink behind
// the observer.
//
// The kernel drives the check-out protocol documented on sched.Scheduler:
// Next fills only free servers and keeps the transactions already running,
// which return through OnPreempt (Return, or a validation failure) or
// OnCompletion. An aborted transaction stays checked out while it waits out
// its backoff and is returned through OnPreempt (with its remaining time
// reset) when the backoff expires.
type Kernel struct {
	set      *txn.Set
	s        sched.Scheduler
	o        *sched.Instrumented // nil when uninstrumented
	label    string              // the instance in event details; "" for one backend
	servers  int
	maxSteps int
	recorder *trace.Recorder
	ctrl     admit.Controller
	inj      *fault.Injector
	rec      *fault.Recorder
	val      *contention.Validator
	crec     *contention.Recorder
	slo      *slo.Engine

	now       float64
	steps     int
	live      int                // admitted or adopted, not yet committed or drained
	running   []*txn.Transaction // checked out onto a server
	completed []*txn.Transaction // backs the commits Settle returns
	// The outage window open at now (inWin), cached whenever now moves;
	// stallSeen is the window whose entry was recorded, so the stall event
	// fires exactly once per window hit.
	win       fault.Window
	winIdx    int
	inWin     bool
	stallSeen int
	c         Counts
}

// Counts is a snapshot of a kernel's progress.
type Counts struct {
	// Now is the kernel's simulated time; Running counts the transactions
	// checked out onto servers; Live counts the transactions the kernel
	// holds (admitted or adopted, not yet committed or drained).
	Now           float64
	Running, Live int
	// Admitted, Done and Shed count arrivals the scheduler accepted,
	// transactions that committed, and arrivals the admission controller
	// rejected; Misses counts commits past the deadline.
	Admitted, Done, Shed, Misses int
	// SumTardiness and MaxTardiness aggregate the commits in commit order.
	SumTardiness, MaxTardiness float64
	// Aborts (crash losses included), Restarts, Stalls and Held come from
	// the fault injector; ValidateFails from commit-time validation.
	Aborts, Restarts, Stalls, Held, ValidateFails int
	// Backlog is the remaining work over the live transactions; Busy is the
	// server time spent executing.
	Backlog, Busy float64
	// Degraded reports the admission controller's degradation mode.
	Degraded bool
}

// completionEpsilon absorbs float64 error when a slice boundary lands
// numerically on a completion instant.
const completionEpsilon = 1e-9

// NewKernel validates cfg's layers against set, resets the set, and wires
// the instrumentation: an observer over cfg.Sink and cfg.Metrics, which the
// kernel calls at its decision points and through which the policy, the
// fault and contention recorders and the SLO engine emit. The fault plan's
// flash-crowd bursts mutate the set's arrival times here, so build the
// caller's arrival source afterwards.
func NewKernel(cfg Config, set *txn.Set, s sched.Scheduler) (Kernel, error) {
	if cfg.Admit != nil {
		// Shedding cascades to dependents (a shed dependency can never
		// complete, so its dependents would deadlock the scheduler), which
		// requires dependencies to be delivered before their dependents.
		if err := admit.CheckArrivalOrder(set); err != nil {
			return Kernel{}, fmt.Errorf("sim: %w", err)
		}
	}
	set.ResetAll()
	return NewInstance(cfg, set, s, sched.Instrument(cfg.Sink, cfg.Metrics), "")
}

// NewInstance is NewKernel for one backend of several, over a set the
// caller has reset (and whose dependencies, with admission control, arrive
// in order). The kernel emits through the observer o (nil for none) instead
// of cfg.Sink: the instances of a fleet share one observer, so their events
// form one stream in global order. label names the instance in the details
// of its dispatch, validate-fail, stall and degrade events, and labels its
// degradation gauge.
func NewInstance(cfg Config, set *txn.Set, s sched.Scheduler, o *sched.Instrumented, label string) (Kernel, error) {
	servers, err := cfg.servers()
	if err != nil {
		return Kernel{}, err
	}
	n := set.Len()
	slots := make([]*txn.Transaction, 2*servers)
	k := Kernel{
		set: set, o: o, label: label, servers: servers, recorder: cfg.Recorder, ctrl: cfg.Admit,
		winIdx: -1, stallSeen: -1, running: slots[:0:servers], completed: slots[servers:servers],
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return Kernel{}, fmt.Errorf("sim: %w", err)
		}
		k.inj = fault.NewInjector(cfg.Faults, n)
		cfg.Faults.ApplyBursts(set)
		k.win, k.winIdx, k.inWin = k.inj.InStall(0)
	}
	if cfg.SLO != nil {
		if err := cfg.SLO.Validate(); err != nil {
			return Kernel{}, fmt.Errorf("sim: %w", err)
		}
		// The kernel folds its own arrivals, commits and drops into the
		// engine and advances it before any event of a new instant, so its
		// alert transitions join the stream in time order.
		k.slo = slo.NewEngine(*cfg.SLO, cfg.Metrics)
		k.slo.Bind(o.Sink())
	}
	k.install(s)
	if k.inj != nil || k.ctrl != nil {
		k.rec = fault.NewRecorder(o.Sink(), cfg.Metrics, label)
	}
	// A workload with read/write sets switches on commit-time validation
	// with re-execution, replacing the injector's random abort draws
	// (docs/CONTENTION.md); plain workloads keep the exact paper model.
	if k.val = contention.NewValidator(set); k.val != nil {
		k.crec = contention.NewRecorder(o.Sink(), cfg.Metrics, label)
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

// install makes s the kernel's scheduler over the set, handing a policy that
// narrates its internal decisions the observer's staged entry.
func (k *Kernel) install(s sched.Scheduler) {
	if ss, ok := s.(sched.SinkSetter); ok && k.o != nil {
		ss.SetSink(k.o.Sink())
	}
	s.Init(k.set)
	k.s = s
}

// Finished reports whether every transaction committed or was shed.
func (k *Kernel) Finished() bool { return k.c.Done+k.c.Shed >= k.set.Len() }

// Running returns the transactions checked out onto servers.
func (k *Kernel) Running() []*txn.Transaction { return k.running }

// SLO returns the kernel's SLO engine, or nil without an SLO config.
func (k *Kernel) SLO() *slo.Engine { return k.slo }

// Counts returns a snapshot of the run's progress counters.
func (k *Kernel) Counts() Counts {
	c := k.c
	c.Now, c.Running, c.Live = k.now, len(k.running), k.live
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
		Now: c.Now, Queued: c.Live - c.Running, Running: c.Running, Servers: servers,
		Backlog: c.Backlog, Completed: c.Done, Misses: c.Misses,
	}
}

// Next takes one scheduling step: unless an outage window is open, it fills
// the free servers from the scheduler, keeping the transactions already
// running, and returns Horizon(arrival). Next reports scheduler-contract
// violations and the step cap as errors. A +Inf result means nothing can
// happen any more; the driver owning the global clock decides whether that
// is a deadlock (see Deadlock).
//
//lint:hotpath
func (k *Kernel) Next(arrival float64) (float64, error) {
	if k.steps++; k.steps > k.maxSteps {
		return 0, k.fail(nil)
	}
	if _, _, ok := k.Outage(); !ok {
		// k.running has capacity for exactly the servers: fill the free
		// slots in place.
		for n := len(k.running); n < k.servers; n++ {
			t := k.s.Next(k.now)
			if t == nil {
				break
			}
			if t.Finished || t.Arrival > k.now || slices.Contains(k.running, t) {
				return 0, k.fail(t)
			}
			t.Started = true
			if k.val != nil {
				// Open (or continue) the incarnation: the read snapshot is
				// as old as the incarnation's first dispatch.
				k.val.Begin(t)
			}
			if k.o != nil {
				k.o.Dispatch(k.now, t, k.label)
			}
			k.running = k.running[:n+1]
			k.running[n] = t
		}
	}
	return k.Horizon(arrival), nil
}

// Horizon returns the instant of the kernel's next event without
// dispatching: the earliest running completion, the caller's next arrival,
// a due restart, and the open outage window's end or the next one's
// opening.
//
//lint:hotpath
func (k *Kernel) Horizon(arrival float64) float64 {
	event := arrival
	if k.inj != nil {
		event = min(event, k.inj.NextRestart())
		if k.inWin {
			event = min(event, k.win.End())
		} else {
			event = min(event, k.inj.NextStallStart(k.now))
		}
	}
	for _, t := range k.running {
		event = min(event, k.now+t.Remaining)
	}
	return event
}

// Advance is the single-backend step: Settle to at, Return the running
// transactions and re-queue the due Restarts. It returns the transactions
// that committed, in a buffer reused by the next Settle.
//
//lint:hotpath
func (k *Kernel) Advance(at float64) []*txn.Transaction {
	done := k.Settle(at)
	k.Return()
	k.Restarts()
	return done
}

// Settle runs the servers to at and settles every transaction whose work is
// done — commit, validate-fail rewind or injector abort. With transactions
// running, an outage window open at at records its entry, and a crash
// window destroys the in-flight work of the survivors, which stay checked
// out until Return or Drain. It returns the transactions that committed, in
// a buffer reused by the next Settle.
//
//lint:hotpath
func (k *Kernel) Settle(at float64) []*txn.Transaction {
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
	if k.inj != nil {
		k.win, k.winIdx, k.inWin = k.inj.InStall(at)
	}
	if k.slo != nil {
		k.slo.Advance(at)
	}
	// Both buffers have capacity for exactly the servers, so settling works
	// in place.
	done := k.completed[:0]
	if len(k.running) == 0 {
		return done
	}
	still := k.running[:0]
	for _, t := range k.running {
		if t.Remaining > completionEpsilon {
			still = append(still, t)
		} else if k.commit(t) {
			done = append(done, t)
		}
	}
	k.running = still
	if w, _, ok := k.Outage(); ok && w.Kind == fault.Crash {
		for _, t := range k.running {
			k.lose(t)
		}
	}
	return done
}

// Return hands every running transaction back to the scheduler with its
// progress kept (preemptive resume), so the next Next re-decides.
//
//lint:hotpath
func (k *Kernel) Return() {
	for _, t := range k.running {
		k.preempt(t)
	}
	k.running = k.running[:0]
}

// Restarts re-queues the aborted transactions whose backoff expired by the
// kernel's time and reports how many there were.
//
//lint:hotpath
func (k *Kernel) Restarts() int {
	if k.inj == nil {
		return 0
	}
	return k.restart()
}

// restart re-queues the due restarts of Restarts.
func (k *Kernel) restart() int {
	due := k.inj.PopDueRestarts(k.now)
	for _, t := range due {
		k.rec.Restart(k.now, t)
		k.preempt(t)
	}
	return len(due)
}

// preempt returns t to the scheduler unfinished.
func (k *Kernel) preempt(t *txn.Transaction) {
	if k.o != nil {
		k.o.Preempt(k.now, t)
	}
	k.s.OnPreempt(k.now, t)
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
		k.preempt(t)
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
	k.live--
	if k.o != nil {
		k.o.Completion(k.now, t)
	}
	k.s.OnCompletion(k.now, t)
	tard := t.Tardiness()
	k.c.SumTardiness, k.c.MaxTardiness = k.c.SumTardiness+tard, max(k.c.MaxTardiness, tard)
	tardy := tard > 0
	if tardy {
		k.c.Misses++
	}
	if k.slo != nil {
		k.slo.Complete(obs.WeightClassIndex(t.Weight), tard, k.now-t.Arrival)
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

// lose destroys t's in-flight incarnation in a crash: its work is rewound
// and its read snapshot dies with it (committed versions survive).
func (k *Kernel) lose(t *txn.Transaction) {
	k.rewind(t)
	if k.val != nil {
		k.val.Reset(t)
	}
	k.inj.RecordCrashLoss(t)
	k.rec.Abort(k.now, t, "crash", k.now)
}

// Outage reports the outage window open at the kernel's time and its index
// in the fault plan, recording its entry exactly once per window.
func (k *Kernel) Outage() (fault.Window, int, bool) {
	if k.inWin && k.winIdx != k.stallSeen {
		k.enter()
	}
	return k.win, k.winIdx, k.inWin
}

// enter records the entry of the open outage window. It stays out of line
// so Outage, called at every step, inlines.
//
//go:noinline
func (k *Kernel) enter() {
	k.stallSeen = k.winIdx
	k.inj.RecordStallEntered()
	k.rec.StallEntered(k.now, k.win)
}

// Arrive delivers one arrival at the kernel's time and reports whether it
// was admitted: with an admission controller it is admitted or shed (with
// its dependents), otherwise it goes straight to the scheduler.
//
//lint:hotpath
func (k *Kernel) Arrive(t *txn.Transaction) bool {
	if k.ctrl != nil {
		// t.Shed marks an earlier cascade: a dependency was shed, so t could
		// never become ready.
		if t.Shed {
			k.c.Shed++
			k.rec.Shed(k.now, t, "cascade")
			return false
		}
		if !k.ctrl.Admit(t, k.Counts().AdmitState(k.servers)) {
			admit.CascadeShed(k.set, t)
			k.c.Shed++
			k.rec.Shed(k.now, t, k.ctrl.Name())
			return false
		}
	}
	k.c.Admitted++
	if k.o != nil {
		k.o.Arrival(k.now, t)
	}
	k.Adopt(t)
	return true
}

// Adopt delivers a transaction that already arrived elsewhere — a fleet's
// failover of work another instance lost: no admission decision and no
// arrival event.
//
//lint:hotpath
func (k *Kernel) Adopt(t *txn.Transaction) {
	k.live++
	k.c.Backlog += t.Remaining
	if k.slo != nil {
		k.slo.Arrive(obs.WeightClassIndex(t.Weight))
	}
	k.s.OnArrival(k.now, t)
}

// Drain empties the kernel at a crash, a process restart: it returns every
// live transaction — running, queued and backing off — by ID, and installs
// fresh as the scheduler, so no drained bookkeeping survives into the next
// life. Settle already destroyed the running transactions' in-flight work at
// the crash instant; Drain destroys the rest.
//
//lint:coldpath a crash drains its instance once per crash window
func (k *Kernel) Drain(fresh sched.Scheduler) []*txn.Transaction {
	victims := slices.Clone(k.running)
	lost := len(victims)
	k.running = k.running[:0]
	for t := k.s.Next(k.now); t != nil; t = k.s.Next(k.now) {
		victims = append(victims, t)
	}
	if k.inj != nil {
		victims = append(victims, k.inj.DrainHeld()...)
	}
	for _, t := range victims[lost:] {
		k.lose(t)
	}
	slices.SortFunc(victims, func(x, y *txn.Transaction) int { return cmp.Compare(x.ID, y.ID) })
	if k.slo != nil {
		for _, t := range victims {
			k.slo.Drop(obs.WeightClassIndex(t.Weight))
		}
	}
	k.live, k.c.Backlog = 0, 0
	k.install(fresh)
	return victims
}

// Flush delivers the observer's batched events and counts, so live readers
// see every decision taken so far.
func (k *Kernel) Flush() { k.o.Flush() }

// Close ends the run's instrumentation: it flushes the batched buffers
// before any reader can snapshot the registry, then publishes the SLO
// engine's final gauges (the open partial window is never evaluated — the
// slo package's determinism contract). It returns the SLO evaluation, or
// nil without an SLO config.
func (k *Kernel) Close() *slo.State {
	k.Flush()
	if k.slo == nil {
		return nil
	}
	k.slo.Finish()
	st := k.slo.State()
	return &st
}

// Summary computes the finished run's performance summary and recycles the
// observer: nothing retains it once the run is over (the caller owns the
// sink and the registry, not the observer).
func (k *Kernel) Summary() (*metrics.Summary, error) {
	sum, err := metrics.Compute(k.set, k.c.Busy)
	if err != nil {
		return nil, err
	}
	c := k.Counts()
	sum.Aborts, sum.Restarts, sum.Stalls, sum.ValidateFails = c.Aborts, c.Restarts, c.Stalls, c.ValidateFails
	k.o.Release()
	k.o = nil
	return sum, nil
}

// Deadlock is the error of a single backend whose Next found no next event:
// nothing runnable and no future arrival, restart or window.
//
//lint:coldpath error exit: the run is over
func (k *Kernel) Deadlock() error {
	return fmt.Errorf("sim: no ready transaction and no future arrivals with %d/%d complete (dependency deadlock?)", k.c.Done, k.set.Len())
}

// fail names why Next aborts the run: the step cap (a livelocked
// scheduler, t nil) or the scheduler-contract violation of dispatching t.
//
//lint:coldpath error exit: livelock and contract violations abort the run
func (k *Kernel) fail(t *txn.Transaction) error {
	switch {
	case t == nil:
		return fmt.Errorf("sim: exceeded %d scheduling steps with %d/%d transactions complete (scheduler livelock?)", k.maxSteps, k.c.Done, k.set.Len())
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
