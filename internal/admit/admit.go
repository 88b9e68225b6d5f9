// Package admit is the overload-protection layer of the reproduction:
// pluggable admission controllers that the simulator, the online executor
// and the web server consult on every transaction arrival. The paper's
// schedulers only reorder work — past utilization 1.0 every policy's
// tardiness grows without bound — so the system needs a second lever: decide
// at the door which transactions to serve at all. WiSeDB frames exactly this
// as SLA-aware admission/shedding; here the controllers range from a plain
// queue cap to a feasibility test over the live backlog to a
// deadline-miss-ratio-driven degradation state machine.
//
// Controllers are deterministic pure functions of the observed State (plus
// their own internal feedback state), never of wall time or randomness, so a
// fixed-seed run sheds the identical transaction set on every replay.
// Implementations need no internal locking: the simulator is
// single-threaded and the executor serializes Admit/Complete/Degraded calls
// behind its own mutex.
package admit

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/txn"
)

// State is the system snapshot an admission decision sees. The caller (sim
// or executor) maintains it; Backlog is the total remaining work over
// admitted, unfinished transactions — the quantity that diverges under
// overload.
type State struct {
	// Now is the simulated decision instant.
	Now float64
	// Queued counts admitted, unfinished transactions not currently
	// executing (including aborted ones waiting out a backoff).
	Queued int
	// Running counts transactions currently occupying a server.
	Running int
	// Servers is the backend parallelism (>= 1).
	Servers int
	// Backlog is the summed remaining work of admitted, unfinished
	// transactions, in simulated time units.
	Backlog float64
	// Completed and Misses count finished transactions and those that
	// finished past their deadline.
	Completed int
	Misses    int
}

// Controller decides, per arriving transaction, whether to serve it.
type Controller interface {
	// Name returns the controller's display/spec name. It is an identity:
	// the kernel reads it once, at wiring, as the detail of its shed events.
	Name() string
	// Admit reports whether t, arriving under st, should be served; false
	// sheds the transaction.
	Admit(t *txn.Transaction, st State) bool
	// Complete feeds back one finished transaction (feedback controllers
	// track the recent miss ratio through it; stateless ones ignore it).
	Complete(t *txn.Transaction, tardy bool)
	// Degraded reports whether the controller currently operates in a
	// degradation mode (always false for stateless controllers).
	Degraded() bool
}

// Unconditional admits everything: the paper's original model.
type Unconditional struct{}

// Name implements Controller.
func (Unconditional) Name() string { return "none" }

// Admit implements Controller.
func (Unconditional) Admit(*txn.Transaction, State) bool { return true }

// Complete implements Controller.
func (Unconditional) Complete(*txn.Transaction, bool) {}

// Degraded implements Controller.
func (Unconditional) Degraded() bool { return false }

// QueueCap sheds arrivals once the admitted-but-unfinished population
// reaches Max — the classic bounded-queue load shedder.
type QueueCap struct {
	// Max is the largest admitted backlog population (queued + running).
	Max int
}

// Name implements Controller.
func (c QueueCap) Name() string { return fmt.Sprintf("queue:%d", c.Max) }

// Admit implements Controller.
func (c QueueCap) Admit(_ *txn.Transaction, st State) bool {
	return st.Queued+st.Running < c.Max
}

// Complete implements Controller.
func (QueueCap) Complete(*txn.Transaction, bool) {}

// Degraded implements Controller.
func (QueueCap) Degraded() bool { return false }

// Feasibility sheds transactions that cannot plausibly meet their deadline
// given the live backlog: a transaction is admitted only when
//
//	now + backlog/servers + length <= deadline + tolerance
//
// i.e. when, even behind the entire current backlog, it would still finish
// by its deadline (FCFS-pessimistic: priority policies will usually do
// better, so the test errs toward admitting). Tolerance relaxes the gate by
// a fixed slack, admitting transactions that would be at most that tardy.
type Feasibility struct {
	// Tolerance is the tardiness the gate accepts before shedding.
	Tolerance float64
}

// Name implements Controller.
func (c Feasibility) Name() string {
	if c.Tolerance == 0 {
		return "slack"
	}
	return fmt.Sprintf("slack:%g", c.Tolerance)
}

// Admit implements Controller.
func (c Feasibility) Admit(t *txn.Transaction, st State) bool {
	servers := st.Servers
	if servers < 1 {
		servers = 1
	}
	projected := st.Now + st.Backlog/float64(servers) + t.Remaining
	return projected <= t.Deadline+c.Tolerance
}

// Complete implements Controller.
func (Feasibility) Complete(*txn.Transaction, bool) {}

// Degraded implements Controller.
func (Feasibility) Degraded() bool { return false }

// missWindow is the sliding completion window of MissRatio.
const missWindowDefault = 64

// MissRatio is the feedback controller: it watches the deadline-miss ratio
// over the last Window completions and switches into a degradation mode when
// it crosses Enter, shedding every arrival whose weight is below WeightFloor
// (the system keeps serving its most important fragments while it sheds
// load). Hysteresis — the mode exits only when the ratio falls below Exit —
// prevents flapping at the threshold.
type MissRatio struct {
	// Enter and Exit bound the hysteresis band (Exit < Enter).
	Enter float64
	Exit  float64
	// Window is the number of recent completions the ratio is computed over.
	Window int
	// WeightFloor is the minimum weight admitted while degraded.
	WeightFloor float64

	recent   []bool // ring of recent miss flags
	next     int
	filled   int
	misses   int
	degraded bool
}

// NewMissRatio builds the controller with the given hysteresis band, using
// the default window of 64 completions and a weight floor of 5 (the upper
// half of the paper's [1, 10] weight range).
func NewMissRatio(enter, exit float64) *MissRatio {
	return &MissRatio{Enter: enter, Exit: exit, Window: missWindowDefault, WeightFloor: 5}
}

// Name implements Controller.
func (c *MissRatio) Name() string { return fmt.Sprintf("missratio:%g,%g", c.Enter, c.Exit) }

// Admit implements Controller.
func (c *MissRatio) Admit(t *txn.Transaction, _ State) bool {
	return !c.degraded || t.Weight >= c.WeightFloor
}

// Complete implements Controller: updates the sliding miss ratio and the
// degradation state machine.
func (c *MissRatio) Complete(_ *txn.Transaction, tardy bool) {
	if c.Window <= 0 {
		c.Window = missWindowDefault
	}
	if len(c.recent) < c.Window {
		//lint:ignore hotpath-alloc recent grows once to the fixed window size, then is reused in place
		c.recent = append(c.recent, tardy)
		c.filled++
	} else {
		if c.recent[c.next] {
			c.misses--
		}
		c.recent[c.next] = tardy
		c.next = (c.next + 1) % c.Window
	}
	if tardy {
		c.misses++
	}
	// The ratio only counts once the window has some history; a single
	// tardy first completion should not flip the whole system.
	if c.filled < c.Window/4 {
		return
	}
	ratio := float64(c.misses) / float64(c.filled)
	if !c.degraded && ratio > c.Enter {
		c.degraded = true
	} else if c.degraded && ratio < c.Exit {
		c.degraded = false
	}
}

// Degraded implements Controller.
func (c *MissRatio) Degraded() bool { return c.degraded }

// CascadeShed marks t and every transaction that transitively depends on it
// as shed. A shed transaction never completes, so its dependents could never
// become ready — admitting them would deadlock the scheduler; shedding the
// whole downstream closure keeps the run sound. The caller counts each
// marked transaction when its arrival is consumed. The walk's stack reuses
// stack's storage and is returned, so a caller that keeps it sheds without
// allocating once the stack has grown to its deepest closure.
func CascadeShed(set *txn.Set, t *txn.Transaction, stack []txn.ID) []txn.ID {
	t.Shed = true
	if len(set.DependentsOf(t.ID)) == 0 {
		return stack
	}
	stack = stack[:0]
	stack = append(stack, t.ID)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, dep := range set.DependentsOf(cur) {
			d := set.ByID(dep)
			if d.Shed {
				continue
			}
			d.Shed = true
			stack = append(stack, dep)
		}
	}
	return stack
}

// CheckArrivalOrder verifies that every dependency arrives strictly before
// its dependents in (arrival time, ID) delivery order — the precondition for
// cascade shedding: a transaction already handed to the scheduler cannot be
// shed retroactively when a later-arriving dependency is rejected. Workloads
// built with the default OrderArrival chain order satisfy this; OrderRandom
// ones may not.
//
//lint:coldpath precondition check, runs once before the event loop
func CheckArrivalOrder(set *txn.Set) error {
	for _, t := range set.Txns {
		for _, dep := range t.Deps {
			d := set.ByID(dep)
			if d.Arrival > t.Arrival || (d.Arrival == t.Arrival && d.ID > t.ID) {
				return fmt.Errorf("admit: transaction %d arrives before its dependency %d — admission control needs dependency-ordered arrivals (workload chain order OrderArrival)", t.ID, d.ID)
			}
		}
	}
	return nil
}

// Parse builds a controller from its CLI spec:
//
//	none                    admit everything (default)
//	queue:N                 shed once N transactions are admitted-unfinished
//	slack[:tolerance]       shed transactions that cannot meet deadline+tolerance
//	missratio[:enter,exit]  degrade on recent miss ratio (defaults 0.5, 0.25)
//
// Controllers with feedback state must be built fresh per run; Parse is
// cheap, so call it once per run rather than sharing instances.
func Parse(spec string) (Controller, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "", "none":
		if arg != "" {
			return nil, fmt.Errorf("admit: %q takes no argument", name)
		}
		return Unconditional{}, nil
	case "queue":
		if arg == "" {
			return nil, fmt.Errorf("admit: queue needs a capacity, e.g. queue:64")
		}
		max, err := strconv.Atoi(arg)
		if err != nil || max < 1 {
			return nil, fmt.Errorf("admit: queue capacity %q must be a positive integer", arg)
		}
		return QueueCap{Max: max}, nil
	case "slack":
		if arg == "" {
			return Feasibility{}, nil
		}
		tol, err := strconv.ParseFloat(arg, 64)
		if err != nil || !txn.Finite(tol) || tol < 0 {
			return nil, fmt.Errorf("admit: slack tolerance %q must be a finite non-negative number", arg)
		}
		return Feasibility{Tolerance: tol}, nil
	case "missratio":
		enter, exit := 0.5, 0.25
		if arg != "" {
			e, x, ok := strings.Cut(arg, ",")
			if !ok {
				return nil, fmt.Errorf("admit: missratio needs enter,exit thresholds, e.g. missratio:0.5,0.25")
			}
			var err error
			if enter, err = strconv.ParseFloat(e, 64); err != nil || !txn.Finite(enter) {
				return nil, fmt.Errorf("admit: missratio enter threshold %q must be a finite number", e)
			}
			if exit, err = strconv.ParseFloat(x, 64); err != nil || !txn.Finite(exit) {
				return nil, fmt.Errorf("admit: missratio exit threshold %q must be a finite number", x)
			}
		}
		if enter <= 0 || enter > 1 || exit < 0 || exit >= enter {
			return nil, fmt.Errorf("admit: missratio thresholds must satisfy 0 <= exit < enter <= 1 (got enter=%v exit=%v)", enter, exit)
		}
		return NewMissRatio(enter, exit), nil
	default:
		return nil, fmt.Errorf("admit: unknown controller %q (choose none, queue:N, slack[:tol], missratio[:enter,exit])", name)
	}
}
