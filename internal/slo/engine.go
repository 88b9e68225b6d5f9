package slo

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Metric names of the SLO layer. The per-class series carry a Prometheus
// label set inside the registered name (obs.MetricName).
const (
	// MetricBurnRatio is the fast-window burn ratio per class: observed
	// deadline-miss ratio over the target. 1 = spending the error budget
	// exactly at the sustainable rate.
	MetricBurnRatio = "asets_slo_burn_ratio"
	// MetricAlertsActive counts the currently firing alert rules.
	MetricAlertsActive = "asets_slo_alerts_active"
	// MetricBudgetRemaining is the fraction of the run's error budget left
	// per class (may go negative when the budget is overspent).
	MetricBudgetRemaining = "asets_slo_error_budget_remaining"
	// MetricAlertFires / MetricAlertResolves count rule transitions.
	MetricAlertFires    = "asets_slo_alert_fires_total"
	MetricAlertResolves = "asets_slo_alert_resolves_total"
)

// ruleKind enumerates the per-class alert rules.
type ruleKind int8

const (
	ruleBurn ruleKind = iota
	ruleTardiness
	ruleResponse
	ruleQueue
)

// ruleNames are the stable wire names used in alert event Detail strings.
var ruleNames = [...]string{"burn", "p95_tardiness", "p99_response", "queue"}

// rule is the state machine of one (class, objective) alert.
type rule struct {
	class  int8
	kind   ruleKind
	limit  float64 // target ratio / ceiling / bound
	detail string  // interned "class/rule" (or "inst:class/rule")
	firing bool
	breach int // consecutive breached windows (ceiling rules, pre-fire)
	calm   int // consecutive healthy windows (resolve hysteresis)
	fires  int
	clears int
}

// winCount is one tumbling window's completion tally for a class, or a sum
// of several.
type winCount struct {
	done uint64
	miss uint64
}

// plus and minus add and remove another tally.
func (w winCount) plus(o winCount) winCount  { return winCount{w.done + o.done, w.miss + o.miss} }
func (w winCount) minus(o winCount) winCount { return winCount{w.done - o.done, w.miss - o.miss} }

// burn returns the tally's miss ratio over target; zero completions mean
// zero burn.
func (w winCount) burn(target float64) float64 {
	if w.done == 0 {
		return 0
	}
	return float64(w.miss) / float64(w.done) / target
}

// classState is the windowed observation state of one weight class.
type classState struct {
	cur  winCount   // the open window
	hist []winCount // closed-window ring, len = SlowWindows
	// fast and slow are the running tallies of the last FastWindows and
	// SlowWindows closed windows: each boundary adds the window it closes
	// and subtracts the one that left the span.
	fast, slow winCount
	backlog    int // arrived but not yet finished
	totalDone  uint64
	totalMiss  uint64
	// Per-window quantile sketches; nil unless a ceiling rule needs them.
	// Reset (not reallocated) at each boundary, so the steady-state
	// observation path stays allocation-free once warmed.
	tard *metrics.Sketch
	resp *metrics.Sketch
	// Burn ratios as of the last closed window.
	fastBurn float64
	slowBurn float64
}

// Engine evaluates a Spec over the decision stream of one run (or one fleet
// instance). It is driven from a single goroutine — the sim/cluster event
// loop or the executor's replay goroutine; only the exported gauges it
// publishes are safe for concurrent readers.
type Engine struct {
	cfg     Config
	inst    string // the fault domain's name, "" outside a fleet
	out     obs.Sink
	win     int64   // index of the open window
	next    float64 // simulated time of the next boundary
	active  int
	burning bool // any class's fast burn at or above burnThreshold
	classes [NumClasses]classState
	rules   []rule

	gBurn   [NumClasses]*obs.Gauge
	gBudget [NumClasses]*obs.Gauge
	gActive *obs.Gauge
	cFires  *obs.Counter
	cClears *obs.Counter
}

// NewEngine builds an engine for cfg (defaulted via withDefaults; call
// Config.Validate first for user-supplied configs — NewEngine panics on an
// invalid one). A non-empty instance names the fault domain the engine
// watches: it prefixes alert Detail strings ("0:heavy/burn") and adds an
// inst label to the exported gauges, so the per-instance engines of a fleet
// share one registry without colliding. Gauges register in reg when it is
// non-nil. Alert events go nowhere until Bind is called.
//
//lint:coldpath engine construction happens once at run wiring time
func NewEngine(cfg Config, instance string, reg *obs.Registry) *Engine {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	e := &Engine{cfg: cfg, inst: instance, out: obs.Discard, next: cfg.Window}
	for ci := range e.classes {
		c := &e.classes[ci]
		c.hist = make([]winCount, cfg.SlowWindows)
		t := cfg.Spec.Classes[ci]
		if t.TardinessP95 > 0 {
			c.tard = metrics.NewSketch()
		}
		if t.ResponseP99 > 0 {
			c.resp = metrics.NewSketch()
		}
		addRule := func(k ruleKind, limit float64) {
			e.rules = append(e.rules, rule{
				class:  int8(ci),
				kind:   k,
				limit:  limit,
				detail: e.detailFor(ci, k),
			})
		}
		if t.MissRatio > 0 {
			addRule(ruleBurn, t.MissRatio)
		}
		if t.TardinessP95 > 0 {
			addRule(ruleTardiness, t.TardinessP95)
		}
		if t.ResponseP99 > 0 {
			addRule(ruleResponse, t.ResponseP99)
		}
		if t.QueueBound > 0 {
			addRule(ruleQueue, t.QueueBound)
		}
	}
	if reg != nil {
		e.register(reg)
	}
	return e
}

// detailFor interns the Detail string of one (class, rule) alert.
func (e *Engine) detailFor(class int, k ruleKind) string {
	d := obs.ClassName(class) + "/" + ruleNames[k]
	if e.inst != "" {
		d = e.inst + ":" + d
	}
	return d
}

// register creates the engine's exported metric handles.
//
//lint:coldpath metric registration happens once at run wiring time
func (e *Engine) register(reg *obs.Registry) {
	label := func(base string, class int) string {
		if e.inst != "" {
			return obs.MetricName(base, "class", obs.ClassName(class), "inst", e.inst)
		}
		return obs.MetricName(base, "class", obs.ClassName(class))
	}
	for ci := range e.classes {
		if !e.cfg.Spec.Classes[ci].enabled() {
			continue
		}
		e.gBurn[ci] = reg.Gauge(label(MetricBurnRatio, ci),
			"Fast-window deadline-miss burn ratio (observed/target) per class.")
		e.gBudget[ci] = reg.Gauge(label(MetricBudgetRemaining, ci),
			"Fraction of the run's deadline-miss error budget remaining per class.")
		e.gBudget[ci].Set(1)
	}
	active := MetricAlertsActive
	fires := MetricAlertFires
	clears := MetricAlertResolves
	if e.inst != "" {
		active = obs.MetricName(active, "inst", e.inst)
		fires = obs.MetricName(fires, "inst", e.inst)
		clears = obs.MetricName(clears, "inst", e.inst)
	}
	e.gActive = reg.Gauge(active, "Currently firing SLO alert rules.")
	e.cFires = reg.Counter(fires, "SLO alert rule fire transitions.")
	e.cClears = reg.Counter(clears, "SLO alert rule resolve transitions.")
}

// Bind routes the engine's alert events into sink (nil drops them). Call
// before the first Advance.
func (e *Engine) Bind(sink obs.Sink) {
	if sink == nil {
		sink = obs.Discard
	}
	e.out = sink
}

// Arrive records a transaction entering the system (class from
// obs.WeightClassIndex).
//
//lint:hotpath
func (e *Engine) Arrive(class int) {
	e.classes[class].backlog++
}

// Drop records a transaction leaving the system without completing (a
// crash-lost drop, not a completion).
//
//lint:hotpath
func (e *Engine) Drop(class int) {
	e.classes[class].backlog--
}

// Complete records a completion: tardiness and response time are the
// completion event's payload, already computed from simulated time.
//
//lint:hotpath
func (e *Engine) Complete(class int, tardiness, response float64) {
	c := &e.classes[class]
	c.backlog--
	c.cur.done++
	c.totalDone++
	if tardiness > 0 {
		c.cur.miss++
		c.totalMiss++
	}
	if c.tard != nil {
		c.tard.Add(tardiness)
	}
	if c.resp != nil {
		c.resp.Add(response)
	}
}

// Advance moves simulated time to now, closing every tumbling window whose
// boundary was crossed and emitting alert transitions through the bound
// sink. The common case — no boundary crossed — is a single comparison;
// boundary evaluation is window-rate work, off the hot path.
//
//lint:hotpath
func (e *Engine) Advance(now float64) {
	if now < e.next {
		return
	}
	e.boundaries(now)
}

// Boundary returns the simulated time of the open window's end: the next
// Advance at or past it closes the window.
func (e *Engine) Boundary() float64 { return e.next }

// boundaries closes every window with boundary at or before now, in order.
//
//lint:coldpath window-boundary evaluation runs once per tumbling window, not per event
func (e *Engine) boundaries(now float64) {
	for now >= e.next {
		e.closeWindow(e.next)
		e.win++
		e.next += e.cfg.Window
	}
	e.publish()
}

// closeWindow pushes the open window into the history ring, recomputes burn
// ratios, evaluates every rule, and resets the window accumulators. at is
// the boundary's simulated time, which stamps any alert transition.
func (e *Engine) closeWindow(at float64) {
	for ci := range e.classes {
		c := &e.classes[ci]
		// The ring slot being overwritten holds window win-SlowWindows (zero
		// before the ring first fills), the one leaving the slow span; the
		// window leaving the fast span is still in the ring.
		slot := int(e.win) % len(c.hist)
		out := c.hist[slot]
		c.hist[slot] = c.cur
		c.slow = c.slow.plus(c.cur).minus(out)
		c.fast = c.fast.plus(c.cur)
		if k := int64(e.cfg.FastWindows); e.win >= k {
			c.fast = c.fast.minus(c.hist[int((e.win-k)%int64(len(c.hist)))])
		}
		if t := e.cfg.Spec.Classes[ci]; t.MissRatio > 0 {
			c.fastBurn = c.fast.burn(t.MissRatio)
			c.slowBurn = c.slow.burn(t.MissRatio)
		}
	}
	for i := range e.rules {
		e.evalRule(&e.rules[i], at)
	}
	e.burning = false
	for ci := range e.classes {
		c := &e.classes[ci]
		if e.cfg.Spec.Classes[ci].MissRatio > 0 && c.fastBurn >= burnThreshold {
			e.burning = true
		}
		c.cur = winCount{}
		if c.tard != nil {
			c.tard.Reset()
		}
		if c.resp != nil {
			c.resp.Reset()
		}
	}
}

// evalRule advances one rule's fire/resolve state machine at a boundary.
func (e *Engine) evalRule(r *rule, at float64) {
	c := &e.classes[r.class]
	var ratio float64
	switch r.kind {
	case ruleBurn:
		ratio = c.fastBurn
	case ruleTardiness:
		ratio = c.tard.Quantile(0.95) / r.limit
	case ruleResponse:
		ratio = c.resp.Quantile(0.99) / r.limit
	case ruleQueue:
		ratio = float64(c.backlog) / r.limit
	}
	if !r.firing {
		breached := false
		if r.kind == ruleBurn {
			// Multi-window burn rule: both the fast and the slow window
			// must burn past the threshold, so a brief spike (fast only)
			// or a long slow bleed (slow only) does not page.
			breached = c.fastBurn >= burnThreshold && c.slowBurn >= burnThreshold
			if breached {
				e.fire(r, at, ratio)
			}
			return
		}
		// Ceiling rules: FastWindows consecutive breached windows.
		breached = ratio > 1
		if breached {
			r.breach++
			if r.breach >= e.cfg.FastWindows {
				e.fire(r, at, ratio)
			}
		} else {
			r.breach = 0
		}
		return
	}
	healthy := ratio <= 1
	if healthy {
		r.calm++
		if r.calm >= resolveHold {
			e.resolve(r, at, ratio)
		}
	} else {
		r.calm = 0
	}
}

// fire transitions a rule to firing and emits the alert_fire event.
func (e *Engine) fire(r *rule, at, ratio float64) {
	r.firing = true
	r.breach = 0
	r.calm = 0
	r.fires++
	e.active++
	if e.cFires != nil {
		e.cFires.Inc()
	}
	e.emit(obs.KindAlertFire, at, ratio, r.detail)
}

// resolve transitions a rule back to healthy and emits alert_resolve.
func (e *Engine) resolve(r *rule, at, ratio float64) {
	r.firing = false
	r.calm = 0
	r.clears++
	e.active--
	if e.cClears != nil {
		e.cClears.Inc()
	}
	e.emit(obs.KindAlertResolve, at, ratio, r.detail)
}

// emit sends one alert transition through the bound sink. The Deadline
// field carries the rule's ratio at transition time (there is no deadline
// to carry: alerts have no transaction subject).
func (e *Engine) emit(kind obs.Kind, at, ratio float64, detail string) {
	e.out.Emit(obs.Event{Time: at, Kind: kind, Txn: -1, Workflow: -1, Deadline: ratio, Detail: detail})
}

// publish refreshes the exported gauges from the last closed window.
func (e *Engine) publish() {
	for ci := range e.classes {
		c := &e.classes[ci]
		if e.gBurn[ci] != nil {
			e.gBurn[ci].Set(c.fastBurn)
		}
		if e.gBudget[ci] != nil {
			e.gBudget[ci].Set(budgetRemaining(c, e.cfg.Spec.Classes[ci].MissRatio))
		}
	}
	if e.gActive != nil {
		e.gActive.Set(float64(e.active))
	}
}

// budgetRemaining is the fraction of the class's error budget left:
// 1 - misses/(target*completions). 1 before any completion; negative once
// the budget is overspent.
func budgetRemaining(c *classState, target float64) float64 {
	if target <= 0 || c.totalDone == 0 {
		return 1
	}
	return 1 - float64(c.totalMiss)/(target*float64(c.totalDone))
}

// Finish closes out the run: it publishes final gauge values. The open
// partial window is deliberately not evaluated — rules only ever see
// complete windows, which is what keeps serial and parallel replays
// byte-identical.
func (e *Engine) Finish() {
	e.publish()
}

// ClassHealth is one class's SLO state as of the last closed window.
type ClassHealth struct {
	Class           string  `json:"class"`
	FastBurn        float64 `json:"fast_burn"`
	SlowBurn        float64 `json:"slow_burn"`
	BudgetRemaining float64 `json:"budget_remaining"`
	Completed       uint64  `json:"completed"`
	Misses          uint64  `json:"misses"`
	Backlog         int     `json:"backlog"`
}

// State is an engine snapshot for health rollups. It must be taken where
// the engine cannot advance meanwhile: on its own goroutine (the event
// loop), or under a lock the loop holds while it steps, as
// a cluster.Fleet's status board does for HTTP readers.
type State struct {
	// Windows is the number of closed tumbling windows.
	Windows int64 `json:"windows"`
	// ActiveAlerts counts currently firing rules; Fires/Resolves are
	// lifetime transition totals.
	ActiveAlerts int `json:"active_alerts"`
	Fires        int `json:"fires"`
	Resolves     int `json:"resolves"`
	// Burning reports whether any class's fast-window burn ratio is at or
	// above the configured threshold — the fleet /healthz degradation
	// signal.
	Burning bool `json:"burning"`
	// FastBurn is the worst fast-window burn across classes;
	// BudgetRemaining the smallest remaining budget fraction.
	FastBurn        float64       `json:"fast_burn"`
	BudgetRemaining float64       `json:"budget_remaining"`
	Classes         []ClassHealth `json:"classes,omitempty"`
}

// State returns the engine's health snapshot.
//
//lint:coldpath end-of-run (and per-scrape) snapshot, off the decision loop
func (e *Engine) State() State {
	st := State{
		Windows:         e.win,
		ActiveAlerts:    e.active,
		Burning:         e.burning,
		BudgetRemaining: 1,
	}
	for i := range e.rules {
		st.Fires += e.rules[i].fires
		st.Resolves += e.rules[i].clears
	}
	st.Classes = make([]ClassHealth, 0, len(e.classes))
	for ci := range e.classes {
		t := e.cfg.Spec.Classes[ci]
		if !t.enabled() {
			continue
		}
		c := &e.classes[ci]
		rem := budgetRemaining(c, t.MissRatio)
		st.Classes = append(st.Classes, ClassHealth{
			Class:           obs.ClassName(ci),
			FastBurn:        c.fastBurn,
			SlowBurn:        c.slowBurn,
			BudgetRemaining: rem,
			Completed:       c.totalDone,
			Misses:          c.totalMiss,
			Backlog:         c.backlog,
		})
		if c.fastBurn > st.FastBurn {
			st.FastBurn = c.fastBurn
		}
		if rem < st.BudgetRemaining {
			st.BudgetRemaining = rem
		}
	}
	return st
}

// String renders a one-line summary, for logs and tests.
func (e *Engine) String() string {
	st := e.State()
	return fmt.Sprintf("slo: %d windows, %d active alerts (%d fires, %d resolves), worst burn %.3g",
		st.Windows, st.ActiveAlerts, st.Fires, st.Resolves, st.FastBurn)
}
