package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/slo"
	"repro/internal/txn"
)

// InstanceStatus is one instance's slice of a fleet snapshot — the payload
// behind the live server's per-instance /healthz detail.
type InstanceStatus struct {
	// Index is the instance's position in the fleet.
	Index int `json:"index"`
	// State is the circuit-breaker view: "healthy", "half-open", "stalled"
	// or "ejected".
	State string `json:"state"`
	// Queued and Running describe the instance's current occupancy; Backlog
	// is its remaining admitted work in simulated units.
	Queued  int     `json:"queued"`
	Running int     `json:"running"`
	Backlog float64 `json:"backlog"`
	// Routed, FailoversIn and CrashLost mirror InstanceResult, live.
	Routed      int `json:"routed"`
	FailoversIn int `json:"failovers_in"`
	CrashLost   int `json:"crash_lost"`
	// Completed and Misses count work finished here so far.
	Completed int `json:"completed"`
	Misses    int `json:"misses"`
	// Degraded reports the instance's admission controller state.
	Degraded bool `json:"degraded"`
}

// FleetStatus is a point-in-time snapshot of a cluster run, safe to read
// while the engine runs.
type FleetStatus struct {
	// Now is the current simulated time; Done reports run completion.
	Now  float64 `json:"now"`
	Done bool    `json:"done"`
	// Routes, Failovers, Lost, Ejections and Recoveries mirror Result, live.
	Routes     int `json:"routes"`
	Failovers  int `json:"failovers"`
	Lost       int `json:"lost"`
	Ejections  int `json:"ejections"`
	Recoveries int `json:"recoveries"`
	// Completed and Shed count transactions finished and rejected so far.
	Completed int `json:"completed"`
	Shed      int `json:"shed"`
	// Instances holds the per-instance detail, in index order.
	Instances []InstanceStatus `json:"instances"`
}

// Healthy counts instances currently accepting routed work.
func (fs FleetStatus) Healthy() int {
	h := 0
	for _, is := range fs.Instances {
		if is.State != "ejected" {
			h++
		}
	}
	return h
}

// InstanceHealth is one instance's slice of the fleet SLO rollup: the
// circuit-breaker view plus the fault domain's SLO engine state.
type InstanceHealth struct {
	Index int       `json:"index"`
	State string    `json:"state"` // "healthy", "half-open", "stalled" or "ejected"
	SLO   slo.State `json:"slo"`
}

// FleetHealth is the aggregate SLO rollup of a cluster run — the payload
// behind the live server's GET /api/fleet, and the signal its aggregate
// /healthz degrades on. Enabled is false (and Instances nil) when the run
// has no SLO configuration.
type FleetHealth struct {
	Now     float64 `json:"now"`
	Done    bool    `json:"done"`
	Enabled bool    `json:"enabled"`
	// Degraded reports whether any instance's fast-window burn ratio is at
	// or above its threshold (slo.State.Burning) — alert hysteresis does not
	// delay it, so the probe degrades as soon as a fast window burns.
	Degraded bool `json:"degraded"`
	// ActiveAlerts, Fires and Resolves aggregate rule transitions fleet-wide.
	ActiveAlerts int `json:"active_alerts"`
	Fires        int `json:"fires"`
	Resolves     int `json:"resolves"`
	// WorstBurn is the highest fast-window burn ratio across the fleet.
	WorstBurn float64 `json:"worst_burn"`
	// Instances holds the per-instance detail, in index order.
	Instances []InstanceHealth `json:"instances,omitempty"`
}

// statusBoard is the engine→observer seam of a Fleet: the engine holds the
// board's lock while it steps the fleet and releases it only around
// Config.pace, so snapshot and health build their copies from the engine's
// own state, at the instant the fleet pauses. Pure simulation runs have no
// board and take no lock.
type statusBoard struct {
	mu sync.Mutex
	r  *router // guarded by mu: the run being read, nil before it starts
}

// snapshot returns a copy of the fleet's current state; the zero
// FleetStatus before the run starts.
func (b *statusBoard) snapshot() FleetStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.r == nil {
		return FleetStatus{}
	}
	return b.r.status()
}

// health returns a copy of the fleet's current SLO rollup; the zero
// FleetHealth before the run starts or without an SLO configuration.
func (b *statusBoard) health() FleetHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.r == nil || b.r.cfg.SLO == nil {
		return FleetHealth{}
	}
	return b.r.health()
}

// status builds the fleet's FleetStatus. The engine has recorded the entry
// of every open outage window at the current instant already (Next and
// settle both ask), so the views it reads change nothing.
func (r *router) status() FleetStatus {
	fs := FleetStatus{
		Now: r.now, Done: r.finished(), Routes: r.routes, Failovers: r.failovers, Lost: r.lost,
		Ejections: r.ejections, Recoveries: r.recoveries, Completed: r.done, Shed: r.shed,
	}
	for i := range r.insts {
		in := &r.insts[i]
		v, c := in.view(i), in.k.Counts()
		state := "healthy"
		switch {
		case in.ejected:
			state = "ejected"
		case in.halfOpen:
			state = "half-open"
		case v.Stalled:
			state = "stalled"
		}
		fs.Instances = append(fs.Instances, InstanceStatus{
			Index: i, State: state, Queued: v.Queued, Running: v.Running, Backlog: v.Backlog,
			Routed: c.Admitted, FailoversIn: in.failoversIn, CrashLost: in.crashLost,
			Completed: c.Done, Misses: c.Misses, Degraded: c.Degraded,
		})
	}
	return fs
}

// health aggregates the instances' SLO engine states into the fleet's
// FleetHealth; the run has an SLO configuration.
func (r *router) health() FleetHealth {
	fh := FleetHealth{Now: r.now, Done: r.finished(), Enabled: true, Instances: make([]InstanceHealth, len(r.insts))}
	for i, is := range r.status().Instances {
		st := r.insts[i].k.SLO().State()
		fh.Instances[i] = InstanceHealth{Index: i, State: is.State, SLO: st}
		fh.Degraded = fh.Degraded || st.Burning
		fh.ActiveAlerts += st.ActiveAlerts
		fh.Fires += st.Fires
		fh.Resolves += st.Resolves
		fh.WorstBurn = max(fh.WorstBurn, st.FastBurn)
	}
	return fh
}

// FleetOptions configures a live cluster replay.
type FleetOptions struct {
	// TimeScale is the wall-clock duration of one simulated time unit;
	// default executor.DefaultTimeScale.
	TimeScale time.Duration
	// Clock paces the replay; nil selects executor.RealClock. A FakeClock
	// replays the identical schedule instantly and bit-deterministically —
	// the same seam, reused (docs/DETERMINISM.md).
	Clock executor.Clock
}

// Fleet runs a cluster configuration over live wall-clock time: the
// multi-instance counterpart of executor.Executor, built by composing the
// deterministic cluster engine with the executor's Clock seam through
// Config.pace. Event-time decisions are exactly the simulator's; wall-clock
// sleeps only pace execution, so a paced run completes with the same routed
// schedule as the instant replay. Event delivery follows the executor's rule
// (executor.Waits): before each pacing sleep under a clock that waits, in
// full batches as Sim.Run delivers under a FakeClock. Live reads follow it
// too: Status and Health read the engine itself under its status board's
// lock, which the run releases only while it sleeps, so they see the
// instant the fleet pauses at, its transactions dispatched.
type Fleet struct {
	sim  *Sim
	set  *txn.Set
	opts FleetOptions
}

// NewFleet prepares a live cluster replay of set under cfg, with its own
// status board and pacing hook; configuration errors surface from Run.
func NewFleet(cfg Config, set *txn.Set, opts FleetOptions) *Fleet {
	if opts.TimeScale <= 0 {
		opts.TimeScale = executor.DefaultTimeScale
	}
	if opts.Clock == nil {
		opts.Clock = executor.RealClock{}
	}
	cfg.status = &statusBoard{}
	return &Fleet{sim: New(cfg), set: set, opts: opts}
}

// Status returns the fleet's current state; safe to call while Run runs.
func (f *Fleet) Status() FleetStatus { return f.sim.cfg.status.snapshot() }

// Health returns the fleet's current SLO rollup; safe to call while Run
// runs. FleetHealth.Enabled is false when the run has no SLO configuration.
func (f *Fleet) Health() FleetHealth { return f.sim.cfg.status.health() }

// Run replays the workload to completion or until ctx is cancelled.
func (f *Fleet) Run(ctx context.Context) (*Result, error) {
	clock := f.opts.Clock
	start := clock.Now()
	f.sim.cfg.instant = !executor.Waits(clock)
	f.sim.cfg.pace = func(next float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		at := start.Add(time.Duration(next * float64(f.opts.TimeScale)))
		d := at.Sub(clock.Now())
		if d <= 0 {
			return ctx.Err()
		}
		return clock.Sleep(ctx, d)
	}
	return f.sim.Run(f.set)
}
