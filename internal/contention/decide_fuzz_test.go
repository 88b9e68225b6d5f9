package contention

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/txn"
)

// Operations of FuzzDeferringDecide, one per input byte (byte % numDecideOps;
// the rest of the byte is the operation's argument).
const (
	dopArrive   = iota // deliver the next transaction
	dopDecide          // re-decide the running set
	dopNext            // fill one free server through Next
	dopPreempt         // hand back a running transaction after part of its work
	dopRewind          // hand back a running transaction rewound to full length
	dopComplete        // finish a running transaction
	dopAdvance         // let time pass
	numDecideOps
)

// hideDecider forwards a policy without its Decider, so a Deferring over it
// probes through Next and OnPreempt.
type hideDecider struct{ sched.Scheduler }

func (h hideDecider) SetSink(s obs.Sink) { h.Scheduler.(sched.SinkSetter).SetSink(s) }

// FuzzDeferringDecide drives CA-ASETS* over a keyed set twice, through
// arbitrary sequences of the check-out contract: one Deferring reaches
// ASETS*'s Decider and settles each re-decision with Decide (falling back to
// the round trip when it declines), the other hides it and always makes the
// round trip, probing through Next and OnPreempt. After every operation both
// must have picked the same transactions in the same order, emitted the same
// events (conflict_defer and the policy's own) and hold the same busy counts,
// and a declined Decide must leave the busy counts as they were.
//
// Input bytes: data[0] picks the set size (8-39 transactions), data[1] the
// seed of its deadlines, lengths and keys, data[2] the probe window (1-8);
// each later byte is one operation. A re-decision runs on len(running) plus
// arg%3 servers, at least one.
func FuzzDeferringDecide(f *testing.F) {
	f.Add([]byte{12, 1, 3, dopArrive, dopArrive, dopArrive, dopNext, dopNext, dopArrive, dopArrive, dopDecide + 2*numDecideOps, dopAdvance, dopDecide, dopComplete, dopDecide + numDecideOps})
	f.Add([]byte{30, 7, 7, dopArrive, dopArrive, dopArrive, dopArrive, dopArrive, dopArrive, dopDecide + 2*numDecideOps, dopPreempt, dopDecide + numDecideOps, dopRewind, dopArrive, dopDecide + 2*numDecideOps, dopAdvance + 3*numDecideOps, dopComplete, dopDecide})
	f.Add([]byte{20, 3, 0, dopArrive, dopArrive, dopArrive, dopArrive, dopNext, dopNext, dopNext, dopNext, dopArrive, dopArrive, dopArrive, dopDecide, dopPreempt + numDecideOps, dopDecide + numDecideOps, dopComplete + 2*numDecideOps, dopDecide + 2*numDecideOps})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 8 + int(data[0])%32
		src := rng.New(uint64(data[1]))
		txns := make([]*txn.Transaction, n)
		for i := range txns {
			length := 0.5 + 4*src.Float64()
			txns[i] = &txn.Transaction{
				ID: txn.ID(i), Arrival: float64(i) / 2, Deadline: float64(i)/2 + length + 6*src.Float64(),
				Length: length, Weight: 1,
			}
		}
		set, err := txn.NewSet(txns)
		if err != nil {
			t.Fatal(err)
		}
		ks := Keyspace{Keys: 12, Alpha: 0.9, Reads: 3, Writes: 2, ReadOnlyProb: 0.2}
		if err := Assign(set, ks, uint64(data[1])); err != nil {
			t.Fatal(err)
		}
		set.ResetAll()
		window := 1 + int(data[2])%8
		d := &deferDriver{t: t}
		d.side[0] = NewDeferring(core.New(), window)
		d.side[1] = NewDeferring(hideDecider{core.New()}, window)
		if d.side[0].decider == nil || d.side[1].decider != nil {
			t.Fatal("only the first side reaches ASETS*'s Decider")
		}
		for i, s := range d.side {
			d.col[i] = &obs.Collector{}
			s.SetSink(d.col[i])
			s.Init(set)
		}
		for _, b := range data[3:] {
			d.do(set, b%numDecideOps, int(b/numDecideOps))
		}
		for d.arrived < n || len(d.running) > 0 {
			d.do(set, dopArrive, 0)
			d.do(set, dopDecide, 1)
			d.do(set, dopComplete, 0)
		}
	})
}

// deferDriver plays the kernel's side of the protocol against two CA-ASETS*
// instances over one set.
type deferDriver struct {
	t       *testing.T
	side    [2]*Deferring
	col     [2]*obs.Collector
	running []*txn.Transaction
	arrived int
	now     float64
}

func (d *deferDriver) do(set *txn.Set, op byte, arg int) {
	switch op {
	case dopArrive:
		if d.arrived == set.Len() {
			return
		}
		tx := set.ByID(txn.ID(d.arrived))
		d.arrived++
		d.now = max(d.now, tx.Arrival)
		for _, s := range d.side {
			s.OnArrival(d.now, tx)
		}
	case dopDecide:
		servers := max(len(d.running)+arg%3, 1)
		var picks [2][]*txn.Transaction
		for i, s := range d.side {
			busy, readers, writers := slices.Clone(s.busy), slices.Clone(s.readers), slices.Clone(s.writers)
			got, ok := s.Decide(d.now, d.running, servers, nil, nil)
			if i == 1 && ok {
				d.t.Fatal("a Deferring without an inner Decider decided")
			}
			if !ok {
				if !slices.Equal(s.busy, busy) || !slices.Equal(s.readers, readers) || !slices.Equal(s.writers, writers) {
					d.t.Fatalf("at %v a declined Decide changed the busy counts", d.now)
				}
				got = nil
				for _, tx := range d.running {
					s.OnPreempt(d.now, tx)
				}
				for len(got) < servers {
					tx := s.Next(d.now)
					if tx == nil {
						break
					}
					got = append(got, tx)
				}
			}
			picks[i] = got
		}
		if !slices.Equal(picks[0], picks[1]) {
			d.t.Fatalf("at %v, running %v on %d servers: Decide picked %v, the round trip %v",
				d.now, txnIDs(d.running), servers, txnIDs(picks[0]), txnIDs(picks[1]))
		}
		d.running = picks[0]
	case dopNext:
		a, b := d.side[0].Next(d.now), d.side[1].Next(d.now)
		if a != b {
			d.t.Fatalf("at %v: Next handed out %v and %v", d.now, txnIDs([]*txn.Transaction{a}), txnIDs([]*txn.Transaction{b}))
		}
		if a != nil {
			d.running = append(d.running, a)
		}
	case dopPreempt, dopRewind, dopComplete:
		if len(d.running) == 0 {
			return
		}
		i := arg % len(d.running)
		tx := d.running[i]
		d.running = slices.Delete(d.running, i, i+1)
		switch op {
		case dopPreempt:
			tx.Remaining -= tx.Remaining * float64(arg%7+1) / 8
		case dopRewind:
			tx.Remaining = tx.Length
		default:
			tx.Remaining, tx.Finished, tx.FinishTime = 0, true, d.now
		}
		for _, s := range d.side {
			if op == dopComplete {
				s.OnCompletion(d.now, tx)
			} else {
				s.OnPreempt(d.now, tx)
			}
		}
	case dopAdvance:
		d.now += float64(arg+1) / 4
	}
	d.check()
}

// check compares the two sides' streams and busy counts.
func (d *deferDriver) check() {
	d.t.Helper()
	a, b := d.col[0].Events(), d.col[1].Events()
	if !slices.Equal(a, b) {
		d.t.Fatalf("at %v the streams part:\n%v\n%v", d.now, a, b)
	}
	if !slices.Equal(d.side[0].busy, d.side[1].busy) || !slices.Equal(d.side[0].readers, d.side[1].readers) ||
		!slices.Equal(d.side[0].writers, d.side[1].writers) {
		d.t.Fatalf("at %v the busy counts part", d.now)
	}
}

// txnIDs lists the IDs of txns, nil as -1.
func txnIDs(txns []*txn.Transaction) []txn.ID {
	out := make([]txn.ID, len(txns))
	for i, tx := range txns {
		out[i] = -1
		if tx != nil {
			out[i] = tx.ID
		}
	}
	return out
}
