package core

import (
	"cmp"
	"slices"
	"testing"

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
	opKeep            // re-decide the running set through Keep, then check it by a round trip
	numOps
)

// Groupings of FuzzSchedulerOps, picked by bits 4-5 of the options byte
// (modulo numGroupings).
const (
	groupWorkflows   = iota // a WithWorkflows(4, 2) set, grouped into workflows
	groupIndependent        // an independent set: singleton entities
	groupReady              // the WithWorkflows(4, 2) set under WithSingletonGrouping
	numGroupings
)

// FuzzSchedulerOps drives ASETS* through arbitrary sequences of the
// check-out contract — arrivals in arrival order, Next, preemption after
// partial service, completion, time passing, and Keep checked against the
// OnPreempt and Next round trip it stands for — on a small weighted set,
// and audits CheckInvariants after every operation. Every transaction Next
// hands out must be arrived, unfinished, not already running and have its
// dependencies done, and draining the scheduler at the end must finish
// every transaction. The two singleton groupings build their entities as
// transactions become ready and recycle them as they finish.
//
// Input bytes: data[0] picks the set size (8-32 transactions), data[1] its
// seed, data[2] the options (bit 0: symmetric rule, bit 1: head-excluded
// representative, bits 2-3: time or count activation, bits 4-5: the
// grouping); each later byte is one operation.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, opArrive, opArrive, opNext, opArrive, opPreempt, opNext, opComplete})
	f.Add([]byte{24, 7, 1, opArrive, opArrive, opArrive, opNext, opNext, opAdvance + 5*numOps, opComplete, opNext, opPreempt + numOps})
	f.Add([]byte{12, 3, 2 | 1<<2, opArrive, opNext, opAdvance + 40*numOps, opArrive, opNext, opNext, opPreempt, opComplete, opComplete})
	f.Add([]byte{31, 9, 3 | 2<<2, opArrive, opArrive, opArrive, opArrive, opNext, opNext, opNext, opPreempt + 2*numOps, opNext, opComplete + numOps})
	f.Add([]byte{16, 5, groupIndependent << 4, opArrive, opArrive, opNext, opComplete, opArrive, opArrive, opNext, opNext, opPreempt, opComplete, opArrive, opNext, opComplete + numOps})
	f.Add([]byte{20, 2, 2 | 2<<2 | groupReady<<4, opArrive, opArrive, opArrive, opNext, opNext, opComplete, opArrive, opNext, opAdvance + 3*numOps, opComplete, opArrive, opNext, opPreempt, opNext, opComplete})
	f.Add([]byte{10, 4, groupIndependent << 4, opArrive, opNext, opAdvance + 2*numOps, opKeep, opArrive, opArrive, opKeep, opNext, opAdvance + 9*numOps, opArrive, opKeep, opComplete, opKeep})
	f.Add([]byte{14, 6, 0, opArrive, opArrive, opNext, opNext, opAdvance + 4*numOps, opArrive, opKeep, opArrive, opArrive, opKeep, opAdvance + 20*numOps, opKeep, opComplete + numOps, opKeep})
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
			opts = append(opts, WithSingletonGrouping())
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
		d := newOpsDriver(t, set, New(opts...))
		for _, b := range data[3:] {
			d.do(b%numOps, int(b/numOps))
		}
		d.drain()
	})
}

// opsDriver plays the engine's side of the check-out contract against one
// scheduler and checks it after every call.
type opsDriver struct {
	t       *testing.T
	a       *ASETSStar
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

func newOpsDriver(t *testing.T, set *txn.Set, a *ASETSStar) *opsDriver {
	set.ResetAll()
	a.Init(set)
	order := slices.Clone(set.Txns)
	slices.SortFunc(order, func(x, y *txn.Transaction) int {
		return cmp.Or(cmp.Compare(x.Arrival, y.Arrival), cmp.Compare(x.ID, y.ID))
	})
	return &opsDriver{t: t, a: a, order: order}
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
	case opComplete:
		if len(d.running) == 0 {
			return
		}
		d.complete(arg % len(d.running))
	case opAdvance:
		d.now += float64(arg+1) / 2
	case opKeep:
		d.keep()
	default:
		d.t.Fatalf("unknown op %d", op)
	}
	d.audit()
}

// next calls Next, checks the transaction it hands out and records it as
// running.
func (d *opsDriver) next() *txn.Transaction {
	tx := d.a.Next(d.now)
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

// keep asks Keep about the running set at now, then returns the set through
// OnPreempt and calls Next until it is used up or another transaction comes
// out first. A kept set must come back exactly, in Keep's order. A set Keep
// returns although its replay is exact (keepable) must see another
// transaction come out first: a real preemption.
func (d *opsDriver) keep() {
	exact := d.a.keepable(d.now, d.running)
	order := slices.Clone(d.running)
	kept := d.a.Keep(d.now, order)
	if exact {
		d.decided = d.now // Keep migrated
	}
	d.audit()
	returned := d.running
	d.running = nil
	for _, tx := range returned {
		d.a.OnPreempt(d.now, tx)
	}
	var got []*txn.Transaction
	for range returned {
		tx := d.next()
		got = append(got, tx)
		if !slices.Contains(returned, tx) {
			break
		}
	}
	switch {
	case kept && !slices.Equal(got, order):
		d.t.Fatalf("Keep(%v) kept %v, the round trip handed out %v", d.now, ids(order), ids(got))
	case !kept && exact && len(returned) > 0 && slices.Contains(returned, got[len(got)-1]):
		d.t.Fatalf("Keep(%v) returned %v, the round trip handed it back first: %v", d.now, ids(returned), ids(got))
	}
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
}

func (d *opsDriver) audit() {
	d.t.Helper()
	if err := d.a.CheckInvariants(d.decided); err != nil {
		d.t.Fatal(err)
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
