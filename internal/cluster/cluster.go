package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
)

// instance is one fault domain: a single-server backend — one sim.Kernel
// with its own scheduler, admission controller, fault injector, validator
// and SLO engine — plus the router's circuit-breaker view of it.
type instance struct {
	k    sim.Kernel
	name string // strconv.Itoa(index), interned once for event details

	ejected   bool    // breaker open: out of the routing set
	halfOpen  bool    // breaker half-open: routable, on probation
	reopenAt  float64 // when an ejected breaker half-opens
	crashSeen int     // last crash window whose instance-wide loss was applied
	delivered bool    // got an arrival/restart/failover at the current instant

	failoversIn int
	crashLost   int
}

// view builds the instance's routing signal.
func (in *instance) view(idx int) InstanceView {
	running, queued, backlog := in.k.Load()
	_, _, stalled := in.k.Outage()
	return InstanceView{
		Index: idx, Ejected: in.ejected, HalfOpen: in.halfOpen, Stalled: stalled,
		Running: running, Queued: queued, Backlog: backlog,
	}
}

// retryEntry is one crash-lost transaction waiting out its failover backoff.
type retryEntry struct {
	at   float64
	t    *txn.Transaction
	from int // instance the transaction was lost on
}

// Sim is a reusable cluster engine bound to one Config, mirroring sim.New.
type Sim struct {
	cfg Config
}

// New returns a cluster engine bound to cfg. Configuration errors surface
// on Run.
func New(cfg Config) *Sim { return &Sim{cfg: cfg} }

// router is one cluster run: N instance kernels plus the routing tier. It
// owns the global clock, routing, the circuit breaker, failover and retry
// budgets and pacing, and steps under the status board's lock when one is
// attached; everything per instance — scheduling, commit, abort,
// validation, stalls, admission, SLO and the decision events — is the
// kernel's.
type router struct {
	cfg    Config
	retry  Retry
	policy Policy
	set    *txn.Set
	obs    *sched.Instrumented // shared by the kernels: one ordered stream
	// healthyGauge exports healthy(), nil without a registry.
	healthyGauge *obs.Gauge
	insts        []instance
	views        []InstanceView
	// detours holds the failover details "to<-from", indexed to*N+from and
	// interned on first use.
	detours []string

	arr     sim.Arrivals // undelivered arrivals
	held    bool         // due arrivals wait at arr's head: every instance is ejected
	retries []retryEntry // sorted by (at, id)
	now     float64
	// fails counts the failovers each crash-lost transaction consumed; it
	// is made at the first crash.
	fails map[txn.ID]int

	done, shed, lost, routes, failovers, ejections, recoveries int
}

// Run routes set across the fleet to completion and returns the result.
// The workload must be dependency-free: the routing tier places individual
// transactions, and per-instance schedulers never observe completions on
// other instances, so a cross-instance dependency could never become ready
// (workflow-colocated routing is future work — see docs/ROBUSTNESS.md).
func (e *Sim) Run(set *txn.Set) (*Result, error) {
	b := e.cfg.status
	if b == nil {
		var r router
		return r.run(e.cfg, set, func() {})
	}
	// Live readers read the router itself, under the board's lock, from the
	// moment it is built. Handing it to the board moves it to the heap, so
	// only a run with a board does that; a pure simulation's router stays
	// on the stack.
	r := new(router)
	b.mu.Lock()
	defer b.mu.Unlock()
	return r.run(e.cfg, set, func() { b.r = r })
}

// run is Sim.Run on router r; built is called once the fleet is built.
func (r *router) run(cfg Config, set *txn.Set, built func()) (*Result, error) {
	retry, maxSteps, err := cfg.validate(set)
	if err != nil {
		return nil, err
	}
	*r = router{
		cfg: cfg, retry: retry, policy: cfg.Policy, set: set,
		obs:   sched.Instrument(cfg.Sink, cfg.Metrics),
		insts: make([]instance, cfg.Instances), views: make([]InstanceView, cfg.Instances),
	}
	defer r.obs.Flush()
	if r.policy == nil {
		r.policy = NewRoundRobin()
	}
	r.obs.Count(obs.KindRoute, obs.KindFailover, obs.KindEject, obs.KindRecover)
	if cfg.Metrics != nil {
		r.healthyGauge = cfg.Metrics.Gauge("asets_cluster_healthy_instances", "instances currently accepting routed work")
		r.healthyGauge.Set(float64(cfg.Instances))
	}
	set.ResetAll()
	for i := range r.insts {
		in := &r.insts[i]
		in.name, in.crashSeen = strconv.Itoa(i), -1
		if in.k, err = sim.NewInstance(cfg.instance(i), set, cfg.NewScheduler(), r.obs, in.name); err != nil {
			return nil, fmt.Errorf("cluster: instance %d: %w", i, err)
		}
	}
	r.arr = sim.NewArrivals(set)
	built()
	for steps := 1; !r.finished(); steps++ {
		if steps > maxSteps {
			return nil, fmt.Errorf("cluster: exceeded %d scheduling steps with %d/%d transactions complete (scheduler or policy livelock?)", maxSteps, r.done, set.Len())
		}
		if err := r.step(); err != nil {
			return nil, err
		}
	}
	return r.result()
}

// step takes one decision step of the fleet: dispatch on every serving
// instance, advance the global clock to the earliest next event, settle
// every instance there, then route the instant's failovers and arrivals.
// An instance re-decides only when it received work: its running
// transaction is then due to re-decide at the instance's next dispatch,
// which keeps it or preempts it for the highest priority, exactly like the
// single-backend preemptive model.
//
//lint:hotpath
func (r *router) step() error {
	event := r.arr.Next()
	if r.held {
		event = r.nextFresh()
	}
	if len(r.retries) > 0 {
		event = min(event, r.retries[0].at)
	}
	for i := range r.insts {
		in := &r.insts[i]
		if in.ejected {
			// An ejected instance dispatches nothing, but its windows still
			// bound the step, and so does its breaker reopening.
			event = min(event, in.k.Horizon(math.Inf(1)))
			if in.reopenAt > r.now {
				event = min(event, in.reopenAt)
			}
			continue
		}
		at, err := in.k.Next(math.Inf(1))
		if err != nil {
			return r.fail(i, err)
		}
		event = min(event, at)
	}
	if math.IsInf(event, 1) {
		return r.stuck()
	}
	event = max(event, r.now)
	if event > r.now && r.cfg.pace != nil {
		// Live readers see every decision up to the instant the fleet
		// pauses; an instant replay never pauses.
		if !r.cfg.instant {
			r.obs.Flush()
		}
		if err := r.pace(event); err != nil {
			return err
		}
	}
	r.now = event

	if r.cfg.SLO != nil {
		r.closeWindows()
	}
	for i := range r.insts {
		r.settle(i)
	}
	if len(r.retries) > 0 && r.retries[0].at <= r.now {
		if err := r.failover(); err != nil {
			return err
		}
	}
	// Due arrivals in arrival order: those deferred while the whole fleet
	// was ejected, then the fresh ones of this instant.
	for r.held = false; len(r.arr) > 0 && r.arr[0].Arrival <= r.now; r.arr = r.arr[1:] {
		routed, err := r.route(r.arr[0])
		if err != nil {
			return err
		}
		if r.held = !routed; r.held {
			break
		}
	}
	for i := range r.insts {
		if in := &r.insts[i]; in.delivered {
			in.delivered = false
			in.k.Redecide()
		}
	}
	return nil
}

// pace waits for the instant next through Config.pace, with the status
// board, when one is attached, unlocked for its readers.
func (r *router) pace(next float64) error {
	if b := r.cfg.status; b != nil {
		b.mu.Unlock()
		defer b.mu.Lock()
	}
	return r.cfg.pace(next)
}

// settle brings instance i to the new instant: its commits, then its
// outage — a crash drains it, a stall preempts its running transaction —
// or else a due breaker recovery, then its due restarts. Instances are
// independent here, so settling one after another is settling them at once.
func (r *router) settle(i int) {
	in := &r.insts[i]
	if done := in.k.Settle(r.now); len(done) > 0 {
		r.done += len(done)
		in.halfOpen = false // a completion confirms recovery
	}
	w, idx, stalled := in.k.Outage()
	switch {
	case stalled && w.Kind == fault.Crash && idx != in.crashSeen:
		r.crash(i, w, idx)
	case stalled:
		// Preemptive resume: the transaction keeps its progress and waits
		// out the window in the queue.
		in.k.Return()
	case in.ejected && r.now >= in.reopenAt:
		// The outage is over and the cooldown passed: half-open back into
		// the routing set.
		in.ejected, in.halfOpen = false, true
		r.recoveries++
		r.breaker(obs.KindRecover, in.name)
	}
	// Keyed-abort restarts return to their own instance's queue.
	if in.k.Restarts() > 0 {
		in.delivered = true
	}
}

// closeWindows closes the instances' SLO windows up to now before any event
// of the new instant, boundary by boundary across the fleet, so alerts —
// stamped with their boundary time — keep the routed stream in time order.
// Settle's own advance is then a no-op.
func (r *router) closeWindows() {
	for {
		b := math.Inf(1)
		for i := range r.insts {
			b = min(b, r.insts[i].k.SLO().Boundary())
		}
		if b > r.now {
			return
		}
		for i := range r.insts {
			r.insts[i].k.SLO().Advance(b)
		}
	}
}

// route places one fresh arrival through the routing policy and the chosen
// instance's admission controller. It reports false when no instance is
// routable (the caller defers the arrival).
func (r *router) route(t *txn.Transaction) (bool, error) {
	j, err := r.pick(t)
	if err != nil || j < 0 {
		return false, err
	}
	in := &r.insts[j]
	r.obs.Note(r.now, obs.KindRoute, t, t.Remaining, in.name)
	r.routes++
	if in.k.Arrive(t) {
		in.delivered = true
	} else {
		r.shed++
	}
	return true, nil
}

// pick asks the routing policy for an instance; -1 means every instance is
// ejected.
func (r *router) pick(t *txn.Transaction) (int, error) {
	for i := range r.insts {
		r.views[i] = r.insts[i].view(i)
	}
	j := r.policy.Pick(r.views)
	if j != -1 && (j < 0 || j >= len(r.insts) || r.insts[j].ejected) {
		return 0, r.badPick(j, t)
	}
	return j, nil
}

// fail wraps instance i's kernel error.
//
//lint:coldpath error exit: the run is over
func (r *router) fail(i int, err error) error { return fmt.Errorf("cluster: instance %d: %w", i, err) }

// stuck is the error of a fleet with no next event: a deadlock.
//
//lint:coldpath error exit: the run is over
func (r *router) stuck() error {
	return fmt.Errorf("cluster: no ready transaction and no future events with %d/%d transactions complete", r.done+r.shed+r.lost, r.set.Len())
}

// badPick names a routing policy's invalid choice.
//
//lint:coldpath error exit: a policy bug aborts the run
func (r *router) badPick(j int, t *txn.Transaction) error {
	return fmt.Errorf("cluster: policy %q picked invalid instance %d for transaction %d", r.policy.Name(), j, t.ID)
}

// finished reports whether every transaction completed, was shed or was
// lost.
func (r *router) finished() bool { return r.done+r.shed+r.lost >= r.set.Len() }

// healthy counts the instances in the routing set.
func (r *router) healthy() int {
	h := 0
	for i := range r.insts {
		if !r.insts[i].ejected {
			h++
		}
	}
	return h
}

// nextFresh is the first arrival after now: the due ones wait for an
// instance, not for time.
//
//lint:coldpath deferral happens only while the whole fleet is ejected
func (r *router) nextFresh() float64 {
	i := sort.Search(len(r.arr), func(i int) bool { return r.arr[i].Arrival > r.now })
	return r.arr[i:].Next()
}

// crash applies a crash window's instance-wide loss: the instance restarts
// empty, its scheduler re-initialized in place (sim.Kernel.Drain), its work
// fails over under the retry budget (or is lost for good), and the breaker
// ejects it until the window's end plus the recovery cooldown.
//
//lint:coldpath a crash drains one instance once per crash window
func (r *router) crash(i int, w fault.Window, idx int) {
	in := &r.insts[i]
	in.crashSeen = idx
	victims := in.k.Drain()
	in.crashLost += len(victims)
	if r.fails == nil {
		r.fails = make(map[txn.ID]int)
	}
	for _, t := range victims {
		if r.cfg.NoFailover || r.fails[t.ID] >= r.retry.Budget {
			r.lost++
			t.Shed = true
			r.obs.Note(r.now, obs.KindFailover, t, 0, "lost")
			continue
		}
		r.fails[t.ID]++
		r.pushRetry(r.now+r.retry.backoff(r.fails[t.ID]), t, i)
	}
	if !in.ejected {
		in.ejected, in.halfOpen = true, false
		r.ejections++
	}
	in.reopenAt = max(in.reopenAt, w.End()+r.cfg.RecoveryCooldown)
	r.breaker(obs.KindEject, in.name)
}

// breaker records the circuit breaker ejecting or recovering the instance
// named inst, and exports the new healthy count.
func (r *router) breaker(kind obs.Kind, inst string) {
	if r.healthyGauge != nil {
		r.healthyGauge.Set(float64(r.healthy()))
	}
	r.obs.Note(r.now, kind, nil, 0, inst)
}

// failover re-enqueues the crash-lost transactions whose backoff expired:
// each goes to a surviving instance, without admission and without a
// second arrival, or waits for the earliest breaker reopening.
//
//lint:coldpath failovers happen only after crashes
func (r *router) failover() error {
	due := 0
	for due < len(r.retries) && r.retries[due].at <= r.now {
		due++
	}
	batch := r.retries[:due:due]
	r.retries = r.retries[due:]
	for _, re := range batch {
		j, err := r.pick(re.t)
		if err != nil {
			return err
		}
		if j == -1 {
			// Every instance is ejected: wait for the earliest reopening.
			at := math.Inf(1)
			for i := range r.insts {
				at = min(at, r.insts[i].reopenAt)
			}
			if math.IsInf(at, 1) {
				return fmt.Errorf("cluster: transaction %d has no surviving instance to fail over to", re.t.ID)
			}
			r.pushRetry(at, re.t, re.from)
			continue
		}
		in := &r.insts[j]
		in.failoversIn++
		r.failovers++
		r.obs.Note(r.now, obs.KindFailover, re.t, re.t.Remaining, r.detour(j, re.from))
		in.k.Adopt(re.t)
		in.delivered = true
	}
	return nil
}

// detour returns the detail of a failover from instance from to instance to.
func (r *router) detour(to, from int) string {
	n := len(r.insts)
	if r.detours == nil {
		r.detours = make([]string, n*n)
	}
	d := &r.detours[to*n+from]
	if *d == "" {
		*d = r.insts[to].name + "<-" + r.insts[from].name
	}
	return *d
}

// pushRetry queues t's failover at at, keeping (at, id) order.
func (r *router) pushRetry(at float64, t *txn.Transaction, from int) {
	e := retryEntry{at: at, t: t, from: from}
	i, _ := slices.BinarySearchFunc(r.retries, e, func(x, y retryEntry) int {
		return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.t.ID, y.t.ID))
	})
	r.retries = slices.Insert(r.retries, i, e)
}
