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

// StatusBoard is the engine→observer seam for live runs: the engine
// publishes a fleet snapshot at every event instant and HTTP handlers read
// it concurrently. Pure simulation runs leave Config.Status nil and pay
// nothing.
type StatusBoard struct {
	mu sync.Mutex
	fs FleetStatus // guarded by mu
	fh FleetHealth // guarded by mu
}

// Snapshot returns a copy of the latest published fleet state.
func (b *StatusBoard) Snapshot() FleetStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	fs := b.fs
	fs.Instances = append([]InstanceStatus(nil), b.fs.Instances...)
	return fs
}

// Health returns a copy of the latest published fleet SLO rollup. Each
// publish replaces the per-instance slo.State values wholesale, so the copy
// never aliases state a later publish mutates.
func (b *StatusBoard) Health() FleetHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	fh := b.fh
	fh.Instances = append([]InstanceHealth(nil), b.fh.Instances...)
	return fh
}

// publish replaces the board's snapshot from the router's state. Called on
// the engine goroutine only.
func (b *StatusBoard) publish(r *router, finished bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fs = FleetStatus{
		Now: r.now, Done: finished, Routes: r.routes, Failovers: r.failovers, Lost: r.lost,
		Ejections: r.ejections, Recoveries: r.recoveries, Completed: r.done, Shed: r.shed,
		Instances: b.fs.Instances,
	}
	if cap(b.fs.Instances) < len(r.insts) {
		//lint:ignore hotpath-alloc one allocation per live run; reused across every publish after
		b.fs.Instances = make([]InstanceStatus, len(r.insts))
	}
	b.fs.Instances = b.fs.Instances[:len(r.insts)]
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
		b.fs.Instances[i] = InstanceStatus{
			Index: i, State: state, Queued: v.Queued, Running: v.Running, Backlog: v.Backlog,
			Routed: c.Admitted, FailoversIn: in.failoversIn, CrashLost: in.crashLost,
			Completed: c.Done, Misses: c.Misses, Degraded: c.Degraded,
		}
	}
	if len(r.insts) == 0 || r.insts[0].k.SLO() == nil {
		return
	}
	// SLO rollup: aggregate the per-instance engine states. Live runs only
	// (Status is nil in pure simulation), so the snapshot allocations are
	// wall-clock-paced, not simulation hot-path work.
	b.fh = FleetHealth{Now: r.now, Done: finished, Enabled: true, Instances: b.fh.Instances}
	if cap(b.fh.Instances) < len(r.insts) {
		//lint:ignore hotpath-alloc one allocation per live run; reused across every publish after
		b.fh.Instances = make([]InstanceHealth, len(r.insts))
	}
	b.fh.Instances = b.fh.Instances[:len(r.insts)]
	for i := range r.insts {
		//lint:ignore hotpath-alloc live-run health snapshot, wall-clock paced
		st := r.insts[i].k.SLO().State()
		b.fh.Instances[i] = InstanceHealth{Index: i, State: b.fs.Instances[i].State, SLO: st}
		if st.Burning {
			b.fh.Degraded = true
		}
		b.fh.ActiveAlerts += st.ActiveAlerts
		b.fh.Fires += st.Fires
		b.fh.Resolves += st.Resolves
		b.fh.WorstBurn = max(b.fh.WorstBurn, st.FastBurn)
	}
}

// FleetOptions configures a live cluster replay.
type FleetOptions struct {
	// TimeScale is the wall-clock duration of one simulated time unit;
	// default 200 microseconds, matching executor.Options.
	TimeScale time.Duration
	// Clock paces the replay; nil selects executor.RealClock. A FakeClock
	// replays the identical schedule instantly and bit-deterministically —
	// the same seam, reused (docs/DETERMINISM.md).
	Clock executor.Clock
}

// Fleet runs a cluster configuration over live wall-clock time: the
// multi-instance counterpart of executor.Executor, built by composing the
// deterministic cluster engine with the executor's Clock seam through
// Config.Pace. Event-time decisions are exactly the simulator's; wall-clock
// sleeps only pace execution, so a paced run completes with the same routed
// schedule as the instant replay. Event delivery follows the executor's rule
// (executor.Waits): before each pacing sleep under a clock that waits, in
// full batches as Sim.Run delivers under a FakeClock.
type Fleet struct {
	sim   *Sim
	set   *txn.Set
	opts  FleetOptions
	board *StatusBoard
}

// NewFleet prepares a live cluster replay of set under cfg. The fleet
// installs its own StatusBoard (overriding cfg.Status) and pacing hook
// (overriding cfg.Pace); configuration errors surface from Run.
func NewFleet(cfg Config, set *txn.Set, opts FleetOptions) *Fleet {
	if opts.TimeScale <= 0 {
		opts.TimeScale = 200 * time.Microsecond
	}
	if opts.Clock == nil {
		opts.Clock = executor.RealClock{}
	}
	f := &Fleet{set: set, opts: opts, board: &StatusBoard{}}
	cfg.Status = f.board
	f.sim = New(cfg)
	return f
}

// Status returns the latest fleet snapshot; safe to call while Run runs.
func (f *Fleet) Status() FleetStatus { return f.board.Snapshot() }

// Health returns the latest fleet SLO rollup; safe to call while Run runs.
// FleetHealth.Enabled is false when the run has no SLO configuration.
func (f *Fleet) Health() FleetHealth { return f.board.Health() }

// Run replays the workload to completion or until ctx is cancelled.
func (f *Fleet) Run(ctx context.Context) (*Result, error) {
	clock := f.opts.Clock
	start := clock.Now()
	f.sim.cfg.instant = !executor.Waits(clock)
	f.sim.cfg.Pace = func(next float64) error {
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
