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
//		at, err := k.Next(nextArrival) // re-decide, dispatch; earliest next event
//		...                            // +Inf: deadlock; the executor paces to at here
//		k.Advance(at)                  // Settle, Redecide, Restarts; completion outcomes
//		...                            // k.Arrive each arrival due by at
//	}
//	k.Close()
//
// and a fleet composes the same operations differently: Settle at every
// event, Redecide only on an instance that received work, Return at a
// stall, Adopt for a failover, and Drain for a crash, which restarts the
// instance's scheduler in place.
//
// Next, Settle, Redecide, Return, Restarts, Arrive and Adopt are the
// decision loop, which must stay allocation-free; their hotpath markers make
// asetslint enforce that transitively over everything they reach, including
// every scheduling policy behind the Scheduler interface and every Sink
// behind the observer.
//
// The kernel drives the check-out protocol documented on sched.Scheduler:
// Next fills only free servers and keeps the transactions already running,
// which return through OnPreempt (a re-decision, Return, or a validation
// failure) or OnCompletion. Redecide marks the running transactions due to
// re-decide, and the next Next settles that once the instant's arrivals and
// restarts are in, with one call to the scheduler's sched.Decider: the
// picks become the running set. Without a Decider, or when it declines, the
// kernel makes the round trip the call stands for: it hands the running
// transactions back to the scheduler and refills the servers through Next.
// Either way it then announces only what changed — a preempt for each
// running transaction not picked again, a dispatch for each pick that was
// not running. So a decision point whose choice does not change emits
// nothing, whatever the policy. An aborted transaction stays checked out
// while it waits out its backoff and is returned through OnPreempt (with
// its remaining time reset) when the backoff expires.
type Kernel struct {
	set      *txn.Set
	s        sched.Scheduler
	decider  sched.Decider       // s's, or nil: every re-decision hands the running set back
	o        *sched.Instrumented // nil when uninstrumented
	label    string              // the instance in event details; "" for one backend
	servers  int
	maxSteps int
	recorder *trace.Recorder
	ctrl     admit.Controller
	shedBy   string   // ctrl's name, the detail of its shed events
	shedDFS  []txn.ID // CascadeShed's stack, reused across sheds
	inj      *fault.Injector
	val      *contention.Validator
	slo      *slo.Engine
	// stalls holds the stall details per window kind, tagged with the
	// instance in a multi-instance run ("crash@2"); degraded is the
	// admission controller's degradation gauge, nil without a registry.
	stalls   [2]string
	degraded *obs.Gauge

	now       float64
	steps     int
	live      int                // admitted or adopted, not yet committed or drained
	running   []*txn.Transaction // checked out onto a server
	completed []*txn.Transaction // backs the commits Settle returns
	prev      []*txn.Transaction // the re-decided running set until announce
	picks     []*txn.Transaction // the Decider's buffer; it becomes running, running prev
	due       int                // len(running) while it is due to re-decide at the next Next, else 0
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
	// Now is the kernel's simulated time.
	Now float64
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
// kernel calls at its decision points and notes its fault, admission and
// validation events on, and through which the policy and the SLO engine
// emit. The fault plan's flash-crowd bursts mutate the set's arrival times
// here, so build the caller's arrival source afterwards.
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
	k, err := NewInstance(cfg, set, s, sched.Instrument(cfg.Sink, cfg.Metrics), "")
	if err != nil {
		return Kernel{}, err
	}
	scale, windows := 1, 0
	if k.inj != nil {
		scale, windows = 1+cfg.Faults.MaxRestarts, len(cfg.Faults.Stalls)
	}
	k.maxSteps = StepCap(set.Len(), scale, windows, k.val != nil)
	return k, nil
}

// StepCap is the livelock safety net on the scheduling steps of a run over
// n transactions. Every step completes a transaction, consumes an arrival,
// or idles toward one, so 8n+64 leaves ample slack; scale multiplies it for
// re-executions (aborts, failover retries) and each outage window adds 16
// boundary steps. With read/write sets (keyed) every validation failure
// re-executes a transaction, at most once per other transaction's commit
// inside its open window, which doubles the cap and adds 2n².
func StepCap(n, scale, windows int, keyed bool) int {
	steps := (8*n+64)*scale + 16*windows
	if keyed {
		steps = 2*steps + 2*n*n
	}
	return steps
}

// NewInstance is NewKernel for one backend of several, over a set the
// caller has reset (and whose dependencies, with admission control, arrive
// in order). The kernel emits through the observer o (nil for none) instead
// of cfg.Sink: the instances of a fleet share one observer, so their events
// form one stream in global order. label names the instance in the details
// of its dispatch, validate-fail, stall and degrade events, labels its
// degradation gauge, and names its SLO engine's instance (slo.NewEngine). The
// instance has no step cap of its own: the fleet
// driving it caps its steps.
func NewInstance(cfg Config, set *txn.Set, s sched.Scheduler, o *sched.Instrumented, label string) (Kernel, error) {
	servers, err := cfg.servers()
	if err != nil {
		return Kernel{}, err
	}
	n := set.Len()
	slots := make([]*txn.Transaction, 4*servers)
	k := Kernel{
		set: set, o: o, label: label, servers: servers, recorder: cfg.Recorder, ctrl: cfg.Admit,
		winIdx: -1, stallSeen: -1, running: slots[:0:servers], completed: slots[servers : servers : 2*servers],
		prev: slots[2*servers : 2*servers : 3*servers], picks: slots[3*servers : 3*servers], maxSteps: math.MaxInt,
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
		k.slo = slo.NewEngine(*cfg.SLO, label, cfg.Metrics)
		k.slo.Bind(o.Sink())
	}
	k.install(s)
	if k.ctrl != nil {
		// A controller's name is its identity, so every shed event carries
		// the one string formatted here.
		k.shedBy = k.ctrl.Name()
	}
	if k.inj != nil || k.ctrl != nil {
		o.Count(obs.KindAbort, obs.KindRestart, obs.KindStall, obs.KindShed)
		for _, w := range []fault.WindowKind{fault.Stall, fault.Crash} {
			k.stalls[w] = w.String()
			if label != "" {
				k.stalls[w] += "@" + label
			}
		}
		if cfg.Metrics != nil {
			name := "asets_admit_degraded"
			if label != "" {
				name = obs.MetricName(name, "inst", label)
			}
			k.degraded = cfg.Metrics.Gauge(name, "1 while the admission controller is in degradation mode")
		}
	}
	// A workload with read/write sets switches on commit-time validation
	// with re-execution, replacing the injector's random abort draws
	// (docs/CONTENTION.md); plain workloads keep the exact paper model.
	if set.Keyed() {
		k.val = contention.NewValidator(set)
		o.Count(obs.KindValidateFail)
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
	k.s, k.decider = s, sched.DeciderOf(s)
}

// Finished reports whether every transaction committed or was shed.
func (k *Kernel) Finished() bool { return k.c.Done+k.c.Shed >= k.set.Len() }

// Running returns the transactions checked out onto servers. Between a
// Redecide and the next Next they are still checked out, though Counts
// already counts them as queued.
func (k *Kernel) Running() []*txn.Transaction { return k.running }

// SLO returns the kernel's SLO engine, or nil without an SLO config.
func (k *Kernel) SLO() *slo.Engine { return k.slo }

// Counts returns a snapshot of the run's progress counters.
func (k *Kernel) Counts() Counts {
	c := k.c
	c.Now = k.now
	if k.inj != nil {
		c.Aborts, c.Restarts, c.Stalls, c.Held = k.inj.Aborts(), k.inj.Restarts(), k.inj.StallsEntered(), k.inj.Held()
	}
	if k.val != nil {
		c.ValidateFails = k.val.Fails()
	}
	return c
}

// busy counts the running transactions; a running set due to re-decide
// counts as queued, as it would after a Return.
func (k *Kernel) busy() int { return len(k.running) - k.due }

// Load is the kernel's routing signal, read without a Counts snapshot: the
// transactions running, those queued in the scheduler (not the ones backing
// off after an abort), and the remaining work over the live transactions.
func (k *Kernel) Load() (running, queued int, backlog float64) {
	running, queued = k.busy(), k.live-k.busy()
	if k.inj != nil {
		queued -= k.inj.Held()
	}
	return running, queued, k.c.Backlog
}

// AdmitState is the admission controller's view of the kernel: the one its
// own arrivals consult (Arrive), and the executor's Probe mid-step.
func (k *Kernel) AdmitState() admit.State {
	running := k.busy()
	return admit.State{
		Now: k.now, Queued: k.live - running, Running: running, Servers: k.servers,
		Backlog: k.c.Backlog, Completed: k.c.Done, Misses: k.c.Misses,
	}
}

// Next takes one scheduling step. It settles a due re-decision first:
// through the scheduler's Decider when it answers, and otherwise (or under
// an open outage window) by handing the running transactions back. Then,
// unless an outage window is open or the Decider picked, it fills the free
// servers from the scheduler. It announces what a re-decision changed
// (under an outage: every running transaction was preempted) and returns
// Horizon(arrival). Next reports scheduler-contract violations and the
// step cap as errors. A +Inf result means nothing can happen any more; the
// driver owning the global clock decides whether that is a deadlock (see
// Deadlock).
//
//lint:hotpath
func (k *Kernel) Next(arrival float64) (float64, error) {
	if k.steps++; k.steps > k.maxSteps {
		return 0, k.fail(nil)
	}
	_, _, out := k.Outage()
	decided := false
	if k.due > 0 {
		k.due = 0
		if decided = !out && k.decide(); !decided {
			k.handBack()
		}
	}
	switch {
	case decided:
		if len(k.prev) == 0 {
			break // the picks are the running set
		}
		for n, t := range k.running {
			if err := k.start(t, n); err != nil {
				return 0, err
			}
		}
	case !out:
		// k.running has capacity for exactly the servers: fill the free
		// slots in place.
		for n := len(k.running); n < k.servers; n++ {
			t := k.s.Next(k.now)
			if t == nil {
				break
			}
			if err := k.start(t, n); err != nil {
				return 0, err
			}
			k.running = k.running[:n+1]
			k.running[n] = t
		}
	}
	if len(k.prev) > 0 {
		k.announce()
	}
	return k.Horizon(arrival), nil
}

// decide settles a due re-decision through the scheduler's Decider and
// reports whether it answered. Picks that differ from the running set
// become it, and the old running set is kept for announce; picks equal to
// it change nothing.
func (k *Kernel) decide() bool {
	if k.decider == nil {
		return false
	}
	picks, ok := k.decider.Decide(k.now, k.running, k.servers, nil, k.picks[:0])
	if ok && !slices.Equal(picks, k.running) {
		k.prev, k.running, k.picks = k.running, picks, k.prev
	}
	return ok
}

// start puts t, the scheduler's pick for server n, on that server: it checks
// the pick against the scheduler contract and, outside a re-decision,
// announces the dispatch.
func (k *Kernel) start(t *txn.Transaction, n int) error {
	if t.Finished || t.Arrival > k.now || slices.Contains(k.running[:n], t) {
		return k.fail(t)
	}
	t.Started = true
	if k.val != nil {
		// Open (or continue) the incarnation: the read snapshot is as old as
		// the incarnation's first dispatch.
		k.val.Begin(t)
	}
	if k.o != nil && len(k.prev) == 0 {
		k.o.Dispatch(k.now, t, k.label)
	}
	return nil
}

// handBack returns the running transactions to the scheduler with their
// progress kept and no events, remembering them for announce.
//
//lint:hotpath
func (k *Kernel) handBack() {
	k.prev = append(k.prev[:0], k.running...)
	for _, t := range k.prev {
		k.s.OnPreempt(k.now, t)
	}
	k.running = k.running[:0]
}

// announce reports what a re-decision changed, after the policy's own
// events from it: a preempt for each running transaction that was not
// picked again, in running order, then a dispatch for each pick that was
// not running, in pick order.
//
//lint:hotpath
func (k *Kernel) announce() {
	if k.o != nil {
		for _, t := range k.prev {
			if !slices.Contains(k.running, t) {
				k.o.Preempt(k.now, t)
			}
		}
		for _, t := range k.running {
			if !slices.Contains(k.prev, t) {
				k.o.Dispatch(k.now, t, k.label)
			}
		}
	}
	k.prev = k.prev[:0]
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

// Advance is the single-backend step: Settle to at, Redecide the running
// transactions and re-queue the due Restarts. It returns the transactions
// that committed, in a buffer reused by the next Settle.
//
//lint:hotpath
func (k *Kernel) Advance(at float64) []*txn.Transaction {
	done := k.Settle(at)
	k.Redecide()
	k.Restarts()
	return done
}

// Redecide marks the running transactions due to re-decide at the next
// Next, which settles them once the instant's arrivals and restarts are
// in. Every driver calls Next before the next Settle or Drain, so a due
// re-decision never outlives its instant.
//
//lint:hotpath
func (k *Kernel) Redecide() { k.due = len(k.running) }

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

// Return preempts every running transaction — it goes back to the
// scheduler with its progress kept (preemptive resume), with a preempt
// event — so the next Next re-decides, and settles a due re-decision. The
// drivers call it at an outage, where nothing is dispatched.
//
//lint:hotpath
func (k *Kernel) Return() {
	k.handBack()
	k.announce()
	k.due = 0
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
		k.o.Note(k.now, obs.KindRestart, t, t.Remaining, "")
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
		k.o.Note(k.now, obs.KindValidateFail, t, t.Length, k.label)
		k.preempt(t)
		return false
	case k.val == nil && k.inj != nil && k.inj.AbortsAttempt(t):
		k.rewind(t)
		k.o.Note(k.now, obs.KindAbort, t, k.inj.RecordAbort(k.now, t)-k.now, "abort")
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
			k.degrade(d)
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
	k.o.Note(k.now, obs.KindAbort, t, 0, "crash")
}

// degrade records the admission controller crossing into (on) or out of
// degradation mode.
func (k *Kernel) degrade(on bool) {
	kind, v := obs.KindDegradeExit, 0.0
	if on {
		kind, v = obs.KindDegradeEnter, 1
	}
	if k.degraded != nil {
		k.degraded.Set(v)
	}
	k.o.Note(k.now, kind, nil, 0, k.label)
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
	k.o.Note(k.now, obs.KindStall, nil, k.win.Duration, k.stalls[k.win.Kind])
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
			k.o.Note(k.now, obs.KindShed, t, t.Remaining, "cascade")
			return false
		}
		if !k.ctrl.Admit(t, k.AdmitState()) {
			k.shedDFS = admit.CascadeShed(k.set, t, k.shedDFS)
			k.c.Shed++
			k.o.Note(k.now, obs.KindShed, t, t.Remaining, k.shedBy)
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

// Drain empties the kernel at a crash: it returns every live transaction —
// running, queued and backing off — by ID. A crash is a process restart, so
// the next life starts from a freshly initialized scheduler: Drain
// re-installs the kernel's own scheduler (SetSink, then Init), and no
// drained bookkeeping survives into the next life. Settle already destroyed
// the running transactions' in-flight work at the crash instant; Drain
// destroys the rest.
//
//lint:coldpath a crash drains its instance once per crash window
func (k *Kernel) Drain() []*txn.Transaction {
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
	k.install(k.s)
	return victims
}

// Flush delivers the observer's staged events and publishes its gauge, so
// live readers see every decision taken so far.
func (k *Kernel) Flush() { k.o.Flush() }

// Close ends the run's instrumentation: it flushes the staged events
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

// Summary computes the finished run's performance summary and flushes the
// observer.
func (k *Kernel) Summary() (*metrics.Summary, error) {
	sum, err := metrics.Compute(k.set, k.c.Busy)
	if err != nil {
		return nil, err
	}
	c := k.Counts()
	sum.Aborts, sum.Restarts, sum.Stalls, sum.ValidateFails = c.Aborts, c.Restarts, c.Stalls, c.ValidateFails
	k.Flush()
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
// determinism. It is read-only: delivering an arrival reslices it, and
// nothing writes through it.
type Arrivals []*txn.Transaction

// NewArrivals orders set by its current arrival times. A set already in
// (arrival, ID) order, as every generator builds it, is returned as a view
// of set.Txns; only a set whose arrivals were rewritten out of order (a
// flash-crowd burst) is cloned and sorted.
func NewArrivals(set *txn.Set) Arrivals {
	byArrival := func(x, y *txn.Transaction) int {
		return cmp.Or(cmp.Compare(x.Arrival, y.Arrival), cmp.Compare(x.ID, y.ID))
	}
	if slices.IsSortedFunc(set.Txns, byArrival) {
		return set.Txns
	}
	a := slices.Clone(set.Txns)
	slices.SortFunc(a, byArrival)
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
