package core

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/txn"
)

// Checked wraps an ASETSStar and audits CheckInvariants immediately after
// every Next and every answered Decide call — every decision point, right
// after migration has run, so all documented invariants must hold exactly.
// A violation panics with the broken invariant. The wrapper is otherwise
// transparent and satisfies sched.Scheduler, so it drops into the
// simulator or the live executor anywhere an *ASETSStar would go.
//
// The audit is O(N) per decision, which turns a linear-time simulation
// quadratic: this is an opt-in debugging harness (asetssim -invariants),
// not a production default.
type Checked struct {
	*ASETSStar
	checks int
}

// NewChecked wraps s with per-decision invariant auditing.
func NewChecked(s *ASETSStar) *Checked { return &Checked{ASETSStar: s} }

// Name implements sched.Scheduler; the suffix marks audited runs in output.
func (c *Checked) Name() string { return c.ASETSStar.Name() + "+inv" }

// Init implements sched.Scheduler: the audit count restarts with the
// policy.
func (c *Checked) Init(set *txn.Set) {
	c.ASETSStar.Init(set)
	c.checks = 0
}

// Next implements sched.Scheduler, auditing the full queue state after the
// decision and panicking on the first violated invariant.
func (c *Checked) Next(now float64) *txn.Transaction {
	t := c.ASETSStar.Next(now)
	if err := c.ASETSStar.CheckInvariants(now); err != nil {
		panic(fmt.Sprintf("core: invariant violated after %d clean decisions: %v", c.checks, err))
	}
	c.checks++
	return t
}

// Decide implements sched.Decider, auditing the queue state after an
// answer: a decision the call settles makes no Next call, so the decision
// point is audited here. A declined call is neither audited nor counted:
// it may leave expired entities for the Next calls that follow to migrate,
// and those calls audit the decision point.
func (c *Checked) Decide(now float64, running []*txn.Transaction, servers int, acc sched.Acceptor, picks []*txn.Transaction) ([]*txn.Transaction, bool) {
	picks, ok := c.ASETSStar.Decide(now, running, servers, acc, picks)
	if !ok {
		return picks, false
	}
	if err := c.ASETSStar.CheckInvariants(now); err != nil {
		panic(fmt.Sprintf("core: invariant violated after %d clean decisions: %v", c.checks, err))
	}
	c.checks++
	return picks, ok
}

// Checks returns how many decision points have been audited so far.
func (c *Checked) Checks() int { return c.checks }

var _ sched.Scheduler = (*Checked)(nil)
