package sched

import (
	"repro/internal/pq"
	"repro/internal/txn"
)

// Less orders two transactions by scheduling priority: it returns true when
// a should run before b. Comparators must be total and time-invariant for
// waiting transactions (a waiting transaction's Remaining does not change,
// so keys such as deadline, remaining time, density, and d-r are all
// stable); the check-out protocol re-inserts preempted transactions, which
// refreshes any key that depends on Remaining.
type Less func(a, b *txn.Transaction) bool

// priorityPolicy is the shared machinery behind every single-queue baseline:
// a ready queue ordered by a policy comparator plus a ReadyTracker for
// precedence constraints. Transactions whose dependency lists are not yet
// drained wait invisibly, exactly like the paper's Wait queue.
//
// The ready queue is an indexed binary heap, which meets the O(log N) per
// decision the paper asks of its "standard balanced binary search tree".
// Each transaction's heap item lives by value in one slab indexed by ID and
// is reused across push/pop cycles.
type priorityPolicy struct {
	name  string
	rt    ReadyTracker
	heap  *pq.Heap[*txn.Transaction]
	items []pq.Item[*txn.Transaction]
}

// NewPriorityPolicy builds a preemptive priority scheduler with the given
// display name and comparator. All baseline constructors delegate here; the
// function is exported so downstream users can plug in custom priorities.
func NewPriorityPolicy(name string, less Less) Scheduler {
	if less == nil {
		panic("sched: NewPriorityPolicy called with nil comparator")
	}
	return &priorityPolicy{name: name, heap: pq.NewHeap[*txn.Transaction](less)}
}

func (p *priorityPolicy) Name() string { return p.name }

//lint:coldpath per-run setup: the ready queue is emptied and its items reset before the event loop
func (p *priorityPolicy) Init(set *txn.Set) {
	p.rt.Reset(set)
	p.heap.Clear()
	p.items = Zeroed(p.items, set.Len())
	for _, t := range set.Txns {
		p.items[t.ID].Value = t
	}
}

func (p *priorityPolicy) push(t *txn.Transaction) { p.heap.Push(&p.items[t.ID]) }

func (p *priorityPolicy) OnArrival(now float64, t *txn.Transaction) {
	if p.rt.Arrive(t) {
		p.push(t)
	}
}

func (p *priorityPolicy) Next(now float64) *txn.Transaction {
	it := p.heap.Pop()
	if it == nil {
		return nil
	}
	return it.Value
}

func (p *priorityPolicy) OnPreempt(now float64, t *txn.Transaction) {
	p.push(t)
}

func (p *priorityPolicy) OnCompletion(now float64, t *txn.Transaction) {
	for _, r := range p.rt.Complete(t) {
		p.push(r)
	}
}

// tieBreak orders equal-priority transactions deterministically by ID so
// that runs replay identically.
func tieBreak(a, b *txn.Transaction) bool { return a.ID < b.ID }

// NewFCFS returns First-Come-First-Served: transactions run in arrival
// order. Because an arriving transaction always has a later arrival time
// than the one running, FCFS never preempts even under the preemptive
// simulator.
func NewFCFS() Scheduler {
	return NewPriorityPolicy("FCFS", func(a, b *txn.Transaction) bool {
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return tieBreak(a, b)
	})
}

// NewEDF returns Earliest-Deadline-First: priority p_i = 1/d_i (Section
// II-C), i.e. the transaction with the earliest deadline runs first.
func NewEDF() Scheduler {
	return NewPriorityPolicy("EDF", func(a, b *txn.Transaction) bool {
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		return tieBreak(a, b)
	})
}

// NewSRPT returns Shortest-Remaining-Processing-Time: the transaction with
// the least remaining work runs first — optimal for response time and hence
// for tardiness once every deadline is already missed [11].
func NewSRPT() Scheduler {
	return NewPriorityPolicy("SRPT", func(a, b *txn.Transaction) bool {
		if a.Remaining != b.Remaining {
			return a.Remaining < b.Remaining
		}
		return tieBreak(a, b)
	})
}

// NewLS returns Least-Slack: priority p_i = 1/s_i [1]. For co-resident
// transactions slack ordering equals ordering by d_i - r_i because the
// current time cancels, which is the stable key used here.
func NewLS() Scheduler {
	return NewPriorityPolicy("LS", func(a, b *txn.Transaction) bool {
		sa, sb := a.Deadline-a.Remaining, b.Deadline-b.Remaining
		if sa != sb {
			return sa < sb
		}
		return tieBreak(a, b)
	})
}

// NewHDF returns Highest-Density-First: priority p_i = w_i/r_i, optimal for
// weighted flow time under overload [2]. With unit weights HDF reduces
// exactly to SRPT.
func NewHDF() Scheduler {
	return NewPriorityPolicy("HDF", func(a, b *txn.Transaction) bool {
		da, db := a.Weight/a.Remaining, b.Weight/b.Remaining
		if da != db {
			return da > db
		}
		return tieBreak(a, b)
	})
}

// NewHVF returns Highest-Value-First, the value-only policy studied in the
// related work [3]: the heaviest transaction runs first regardless of
// deadline or length.
func NewHVF() Scheduler {
	return NewPriorityPolicy("HVF", func(a, b *txn.Transaction) bool {
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		return tieBreak(a, b)
	})
}

// NewMIX returns the static hybrid of [3] at blend 0.5: a linear
// combination of absolute deadline and value, prioritizing small
// (d_i - w_i)/2. Unlike ASETS*, the blend is a fixed system parameter — the
// contrast the paper draws in Section V.
func NewMIX() Scheduler {
	const beta = 0.5
	return NewPriorityPolicy("MIX(0.50)", func(a, b *txn.Transaction) bool {
		ka := beta*a.Deadline - (1-beta)*a.Weight
		kb := beta*b.Deadline - (1-beta)*b.Weight
		if ka != kb {
			return ka < kb
		}
		return tieBreak(a, b)
	})
}
