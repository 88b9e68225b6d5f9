package core

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Operations of FuzzSchedulerOps, one per input byte (byte % numOps; the
// rest of the byte, byte / numOps, is the operation's argument).
const (
	opArrive   = iota // deliver the next transaction in arrival order
	opNext            // ask for a transaction to run
	opPreempt         // hand back a running transaction after part of its work
	opComplete        // finish a running transaction
	opAdvance         // let time pass
	opDecide          // re-decide the running set through Decide, checked by a round trip
	numOps
)

// Groupings of FuzzSchedulerOps, picked by bits 4-5 of the options byte
// (modulo numGroupings).
const (
	groupWorkflows   = iota // a WithWorkflows(4, 2) set, grouped into workflows
	groupIndependent        // an independent set: singleton entities
	groupReady              // the WithWorkflows(4, 2) set under withSingletonGrouping
	numGroupings
)

// FuzzSchedulerOps drives ASETS* through arbitrary sequences of the
// check-out contract — arrivals in arrival order, Next, preemption after
// partial service, completion, time passing, and Decide — on a small
// weighted set, and audits CheckInvariants after every operation. Every
// transaction Next hands out must be arrived, unfinished, not already
// running and have its dependencies done, and draining the scheduler at the
// end must finish every transaction. The two singleton groupings build
// their entities as transactions become ready and recycle them as they
// finish.
//
// A twin scheduler over the same set takes every operation too, but
// answers each Decide by the round trip it stands for: the running set
// handed back through OnPreempt, then Next calls that probe while the
// acceptor skips. Both must pick the same transactions in the same order,
// so they stay in the same state.
//
// Input bytes: data[0] picks the set size (8-32 transactions), data[1] its
// seed, data[2] the options (bit 0: symmetric rule, bit 1: head-excluded
// representative, bits 2-3: time or count activation, bits 4-5: the
// grouping); each later byte is one operation. A Decide takes its
// acceptor's window (0-8), its free servers (0-2) and whether its acceptor
// stops early (an argument of 27 or more) from its argument, and the next
// byte as the IDs its acceptor takes: no acceptor for 0, otherwise the IDs
// whose residue mod 8 is a set bit.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, opArrive, opArrive, opNext, opArrive, opPreempt, opNext, opComplete})
	f.Add([]byte{24, 7, 1, opArrive, opArrive, opArrive, opNext, opNext, opAdvance + 5*numOps, opComplete, opNext, opPreempt + numOps})
	f.Add([]byte{12, 3, 2 | 1<<2, opArrive, opNext, opAdvance + 40*numOps, opArrive, opNext, opNext, opPreempt, opComplete, opComplete})
	f.Add([]byte{31, 9, 3 | 2<<2, opArrive, opArrive, opArrive, opArrive, opNext, opNext, opNext, opPreempt + 2*numOps, opNext, opComplete + numOps})
	f.Add([]byte{16, 5, groupIndependent << 4, opArrive, opArrive, opNext, opComplete, opArrive, opArrive, opNext, opNext, opPreempt, opComplete, opArrive, opNext, opComplete + numOps})
	f.Add([]byte{20, 2, 2 | 2<<2 | groupReady<<4, opArrive, opArrive, opArrive, opNext, opNext, opComplete, opArrive, opNext, opAdvance + 3*numOps, opComplete, opArrive, opNext, opPreempt, opNext, opComplete})
	f.Add([]byte{10, 4, groupIndependent << 4, opArrive, opNext, opAdvance + 2*numOps, opDecide, 0, opArrive, opArrive, opDecide, 0, opNext, opAdvance + 9*numOps, opArrive, opDecide, 0, opComplete, opDecide, 0})
	f.Add([]byte{14, 6, 0, opArrive, opArrive, opNext, opNext, opAdvance + 4*numOps, opArrive, opDecide, 0, opArrive, opArrive, opDecide, 0, opAdvance + 20*numOps, opDecide, 0, opComplete + numOps, opDecide, 0})
	f.Add([]byte{24, 3, groupIndependent << 4, opArrive, opArrive, opArrive, opArrive, opArrive, opNext, opNext, opAdvance + 3*numOps, opArrive, opArrive, opDecide + 13*numOps, 0x55, opDecide + 26*numOps, 0xf0, opAdvance + numOps, opDecide + 8*numOps, 0x0f, opComplete, opDecide + 22*numOps, 0x3c})
	f.Add([]byte{30, 8, groupReady << 4, opArrive, opArrive, opArrive, opArrive, opNext, opNext, opNext, opAdvance + 2*numOps, opArrive, opArrive, opDecide + 17*numOps, 0xaa, opArrive, opDecide + 4*numOps, 0x81, opPreempt, opDecide + 25*numOps, 0x7e})
	f.Add([]byte{28, 32, 0, opArrive, opArrive, opArrive, opArrive, opArrive, opArrive, opArrive, opArrive, opArrive, opArrive, opArrive, opDecide + 32*numOps, 0x41, opArrive, opNext, opAdvance + 3*numOps, opDecide + 38*numOps, 0x22, opComplete, opDecide + 30*numOps, 0x90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := workload.Default(0.95, uint64(data[1])).WithWeights()
		grouping := (data[2] >> 4 & 3) % numGroupings
		if grouping != groupIndependent {
			cfg = cfg.WithWorkflows(4, 2)
		}
		cfg.N = 8 + int(data[0])%25
		set := workload.MustGenerate(cfg)
		var opts []Option
		if grouping == groupReady {
			opts = append(opts, withSingletonGrouping())
		}
		if data[2]&1 != 0 {
			opts = append(opts, WithRule(RuleSymmetric))
		}
		if data[2]&2 != 0 {
			opts = append(opts, WithHeadExcludedRep())
		}
		switch data[2] >> 2 & 3 {
		case 1:
			opts = append(opts, WithTimeActivation(0.05))
		case 2:
			opts = append(opts, WithCountActivation(0.2))
		}
		d := newOpsDriver(t, set, New(opts...), New(opts...))
		for i := 3; i < len(data); i++ {
			op, arg := data[i]%numOps, int(data[i]/numOps)
			if op == opDecide {
				var accept byte
				if i+1 < len(data) {
					i++
					accept = data[i]
				}
				d.decide(arg, accept)
				continue
			}
			d.do(op, arg)
		}
		d.drain()
	})
}

// opsDriver plays the engine's side of the check-out contract against a
// scheduler and its twin, and checks them after every call.
type opsDriver struct {
	t       *testing.T
	a, twin *ASETSStar
	order   []*txn.Transaction // arrival order: time, then ID
	arrived int                // order[:arrived] were delivered
	running []*txn.Transaction // checked out, in check-out order
	now     float64
	// decided is the instant of the last Next. Migration to the HDF-List
	// runs in Next, so the EDF-List invariant holds at decision instants;
	// calls at a later now only ever add entities that meet it then, and
	// so also at decided.
	decided float64
}

func newOpsDriver(t *testing.T, set *txn.Set, a, twin *ASETSStar) *opsDriver {
	set.ResetAll()
	a.Init(set)
	twin.Init(set)
	order := slices.Clone(set.Txns)
	slices.SortFunc(order, func(x, y *txn.Transaction) int {
		return cmp.Or(cmp.Compare(x.Arrival, y.Arrival), cmp.Compare(x.ID, y.ID))
	})
	return &opsDriver{t: t, a: a, twin: twin, order: order}
}

func (d *opsDriver) do(op byte, arg int) {
	switch op {
	case opArrive:
		if d.arrived == len(d.order) {
			return
		}
		tx := d.order[d.arrived]
		d.arrived++
		d.now = max(d.now, tx.Arrival)
		d.a.OnArrival(d.now, tx)
		d.twin.OnArrival(d.now, tx)
	case opNext:
		d.next()
	case opPreempt:
		if len(d.running) == 0 {
			return
		}
		i := arg % len(d.running)
		tx := d.running[i]
		d.running = append(d.running[:i], d.running[i+1:]...)
		tx.Remaining -= tx.Remaining * float64(arg%7+1) / 8
		d.a.OnPreempt(d.now, tx)
		d.twin.OnPreempt(d.now, tx)
	case opComplete:
		if len(d.running) == 0 {
			return
		}
		d.complete(arg % len(d.running))
	case opAdvance:
		d.now += float64(arg+1) / 2
	default:
		d.t.Fatalf("unknown op %d", op)
	}
	d.audit()
}

// next calls Next, checks the transaction it hands out and records it as
// running.
func (d *opsDriver) next() *txn.Transaction {
	tx := d.a.Next(d.now)
	if twin := d.twin.Next(d.now); twin != tx {
		d.t.Fatalf("Next(%v) handed out %v, its twin %v", d.now, ids([]*txn.Transaction{tx}), ids([]*txn.Transaction{twin}))
	}
	d.decided = d.now
	if tx == nil {
		return nil
	}
	switch {
	case !slices.Contains(d.order[:d.arrived], tx):
		d.t.Fatalf("Next(%v) handed out T%d before its arrival", d.now, tx.ID)
	case slices.Contains(d.running, tx):
		d.t.Fatalf("Next(%v) handed out running T%d again", d.now, tx.ID)
	case tx.Finished:
		d.t.Fatalf("Next(%v) handed out finished T%d", d.now, tx.ID)
	}
	for _, dep := range tx.Deps {
		if !d.a.set.ByID(dep).Finished {
			d.t.Fatalf("Next(%v) handed out T%d before its dependency T%d finished", d.now, tx.ID, dep)
		}
	}
	tx.Started = true
	d.running = append(d.running, tx)
	return tx
}

// idSubset is the fuzz acceptor: it takes the transactions whose ID mod 8
// is a set bit of accept and skips the others, until the skips of one probe
// pass window or, when early, it skips an ID divisible by 3: that skip
// answers stop.
type idSubset struct {
	accept  byte
	window  int
	early   bool
	skipped int
}

func (m *idSubset) Accept(t *txn.Transaction) (take, stop bool) {
	if m.accept>>(t.ID%8)&1 != 0 {
		return true, false
	}
	m.skipped++
	return false, m.skipped > m.window || m.early && t.ID%3 == 0
}

func (m *idSubset) Picked(*txn.Transaction) { m.skipped = 0 }

// decide re-decides the running set at now on len(running) plus arg/9%3
// servers (at least one), accepting through a fresh idSubset of accept with
// window arg%9, early from 27 (none for 0): through Decide on the scheduler,
// falling back to the round trip when it declines, and through the round
// trip on the twin. Both must pick the same transactions in the same order.
// Without an acceptor, on a replayable running set (no aging, the full
// representative), Decide must answer when the replay is exact by
// construction, a singleton grouping, and, for every grouping, when it only
// keeps the running set: as many servers as running transactions, and the
// round trip picks exactly those.
func (d *opsDriver) decide(arg int, accept byte) {
	servers := max(len(d.running)+arg/9%3, 1)
	acc := func() sched.Acceptor {
		if accept == 0 {
			return nil
		}
		return &idSubset{accept: accept, window: arg % 9, early: arg >= 27}
	}
	running := d.running
	replay := accept == 0 && d.a.replayable(d.now, running)
	exact := replay && d.a.memberStart == nil
	got, ok := d.a.Decide(d.now, running, servers, acc(), nil)
	if !ok {
		if exact {
			d.t.Fatalf("Decide(%v) declined an exact replay of %v", d.now, ids(running))
		}
		got = roundTrip(d.a, d.now, running, servers, acc(), nil)
	}
	want := roundTrip(d.twin, d.now, running, servers, acc(), nil)
	if !slices.Equal(got, want) {
		d.t.Fatalf("Decide(%v) of %v on %d servers, argument %d, accept %#x: picked %v, the round trip %v",
			d.now, ids(running), servers, arg, accept, ids(got), ids(want))
	}
	if !ok && replay && servers == len(running) && len(want) == len(running) &&
		!slices.ContainsFunc(want, func(t *txn.Transaction) bool { return !slices.Contains(running, t) }) {
		d.t.Fatalf("Decide(%v) declined %v, the round trip kept it: %v", d.now, ids(running), ids(want))
	}
	d.decided = d.now
	for _, tx := range got {
		tx.Started = true
	}
	d.running = got
	d.audit()
}

// roundTrip is the round trip a Decide stands for: running handed back
// through OnPreempt, then up to servers picks, each, when acc is non-nil, a
// probe: Next called again while acc skips, the pick the candidate acc takes
// or else the first, the other candidates handed back in probe order.
func roundTrip(a *ASETSStar, now float64, running []*txn.Transaction, servers int, acc sched.Acceptor, picks []*txn.Transaction) []*txn.Transaction {
	for _, tx := range running {
		a.OnPreempt(now, tx)
	}
	for len(picks) < servers {
		head := a.Next(now)
		if head == nil {
			break
		}
		pick, cand := head, []*txn.Transaction{head}
		if acc != nil {
			for c := head; ; {
				take, stop := acc.Accept(c)
				if take {
					pick = c
				}
				if take || stop {
					break
				}
				if c = a.Next(now); c == nil {
					break
				}
				cand = append(cand, c)
			}
			acc.Picked(pick)
		}
		for _, c := range cand {
			if c != pick {
				a.OnPreempt(now, c)
			}
		}
		picks = append(picks, pick)
	}
	return picks
}

// ids lists the IDs of txns, nil as -1.
func ids(txns []*txn.Transaction) []txn.ID {
	out := make([]txn.ID, len(txns))
	for i, tx := range txns {
		out[i] = -1
		if tx != nil {
			out[i] = tx.ID
		}
	}
	return out
}

// complete finishes the i-th running transaction at now.
func (d *opsDriver) complete(i int) {
	tx := d.running[i]
	d.running = append(d.running[:i], d.running[i+1:]...)
	tx.Remaining = 0
	tx.Finished = true
	tx.FinishTime = d.now
	d.a.OnCompletion(d.now, tx)
	d.twin.OnCompletion(d.now, tx)
}

func (d *opsDriver) audit() {
	d.t.Helper()
	for _, a := range []*ASETSStar{d.a, d.twin} {
		if err := a.CheckInvariants(d.decided); err != nil {
			d.t.Fatal(err)
		}
	}
}

// drain delivers the remaining arrivals, then runs every transaction to
// completion, one at a time, and checks that all of them finished.
func (d *opsDriver) drain() {
	for d.arrived < len(d.order) {
		d.do(opArrive, 0)
	}
	for steps := 0; ; steps++ {
		if steps > 4*len(d.order)+len(d.running) {
			d.t.Fatalf("drain did not finish after %d steps", steps)
		}
		if d.next() == nil && len(d.running) == 0 {
			break
		}
		d.audit()
		d.now += d.running[0].Remaining
		d.complete(0)
		d.audit()
	}
	for _, tx := range d.order {
		if !tx.Finished {
			d.t.Fatalf("T%d never finished", tx.ID)
		}
	}
}
