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

// queueSched is a transparent FIFO inner policy for exercising the wrapper:
// Next pops the front, OnPreempt re-appends (so deferred candidates land at
// the back in probe order), OnCompletion drops.
type queueSched struct {
	q []*txn.Transaction
}

func (s *queueSched) Name() string      { return "FIFO" }
func (s *queueSched) Init(set *txn.Set) { s.q = s.q[:0] }
func (s *queueSched) OnArrival(now float64, t *txn.Transaction) {
	s.q = append(s.q, t)
}
func (s *queueSched) Next(now float64) *txn.Transaction {
	if len(s.q) == 0 {
		return nil
	}
	t := s.q[0]
	s.q = s.q[1:]
	return t
}
func (s *queueSched) OnPreempt(now float64, t *txn.Transaction)    { s.q = append(s.q, t) }
func (s *queueSched) OnCompletion(now float64, t *txn.Transaction) {}

// deferFixture: t0 writes key 1; t1 reads key 1 (conflicts with t0);
// t2 touches key 7 only (conflicts with nobody); t3 reads key 1 too.
func deferFixture(t *testing.T) *txn.Set {
	t.Helper()
	txns := []*txn.Transaction{
		{ID: 0, Deadline: 10, Length: 2, Weight: 1},
		{ID: 1, Deadline: 10, Length: 2, Weight: 1},
		{ID: 2, Deadline: 10, Length: 2, Weight: 1},
		{ID: 3, Deadline: 10, Length: 2, Weight: 1},
	}
	return keyedSet(t, txns,
		keySets{reads: []txn.Key{0}, writes: []txn.Key{1}},
		keySets{reads: []txn.Key{1}},
		keySets{reads: []txn.Key{7}, writes: []txn.Key{7}},
		keySets{reads: []txn.Key{1}, writes: []txn.Key{2}})
}

// TestDeferringSteal: with the conflicting head's writer checked out, the
// wrapper skips past it to the first non-conflicting candidate, emits one
// conflict_defer event per skipped transaction, and returns the skipped
// ones to the inner policy.
func TestDeferringSteal(t *testing.T) {
	set := deferFixture(t)
	inner := &queueSched{}
	d := NewDeferring(inner, 4)
	col := &obs.Collector{}
	d.SetSink(col)
	d.Init(set)
	for _, tx := range set.Txns {
		d.OnArrival(0, tx)
	}

	if got := d.Next(0); got != set.Txns[0] {
		t.Fatalf("first Next = %v, want t0 (empty busy set defers nothing)", got)
	}
	// t0 (writes key 1) is busy; FIFO head t1 reads key 1 → conflict; t2 is
	// clean and must be stolen past it.
	if got := d.Next(0); got != set.Txns[2] {
		t.Fatalf("second Next = %v, want the non-conflicting t2", got)
	}
	defers := 0
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindConflictDefer {
			defers++
			if ev.Txn != 1 {
				t.Fatalf("conflict_defer for txn %d, want the deferred t1", ev.Txn)
			}
		}
	}
	if defers != 1 {
		t.Fatalf("%d conflict_defer events, want 1", defers)
	}
	// The deferred t1 went back to the inner queue, not lost.
	if len(inner.q) != 2 || inner.q[0] != set.Txns[3] || inner.q[1] != set.Txns[1] {
		t.Fatalf("inner queue after steal = %v", inner.q)
	}
}

// TestDeferringWorkConserving: when every probed candidate conflicts with
// the busy set, the wrapper dispatches the original head anyway and emits
// no defer events.
func TestDeferringWorkConserving(t *testing.T) {
	set := deferFixture(t)
	inner := &queueSched{}
	d := NewDeferring(inner, 4)
	col := &obs.Collector{}
	d.SetSink(col)
	d.Init(set)
	// Only the writer and the two conflicting readers arrive.
	d.OnArrival(0, set.Txns[0])
	d.OnArrival(0, set.Txns[1])
	d.OnArrival(0, set.Txns[3])

	if got := d.Next(0); got != set.Txns[0] {
		t.Fatalf("first Next = %v, want t0", got)
	}
	if got := d.Next(0); got != set.Txns[1] {
		t.Fatalf("all-conflicting Next = %v, want the original head t1", got)
	}
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindConflictDefer {
			t.Fatal("work-conserving fallback emitted a conflict_defer event")
		}
	}
	// t3 was probed and returned; it must still be dispatchable.
	if got := d.Next(0); got != set.Txns[3] {
		t.Fatalf("third Next = %v, want the returned t3", got)
	}
}

// TestDeferringOpenIncarnations: a preempted transaction with partial
// progress keeps its read snapshot open, so conflicting work is deferred
// around it even though no server holds it; a rewind to full length closes
// it.
func TestDeferringOpenIncarnations(t *testing.T) {
	set := deferFixture(t)
	inner := &queueSched{}
	d := NewDeferring(inner, 4)
	d.Init(set)
	d.OnArrival(0, set.Txns[0])
	d.OnArrival(0, set.Txns[1])
	d.OnArrival(0, set.Txns[2])

	if got := d.Next(0); got != set.Txns[0] {
		t.Fatalf("Next = %v, want t0", got)
	}
	// t0 is preempted mid-incarnation: still busy for conflict purposes.
	set.Txns[0].Remaining = 1
	d.OnPreempt(1, set.Txns[0])
	if got := d.Next(1); got != set.Txns[2] {
		t.Fatalf("Next past an open incarnation = %v, want t2", got)
	}
	d.OnCompletion(2, set.Txns[2])
	// Validation failure rewinds t0 to full length: its snapshot is gone,
	// t1 no longer conflicts with anything open.
	if got := d.Next(2); got != set.Txns[0] {
		t.Fatalf("Next = %v, want the re-queued t0", got)
	}
	set.Txns[0].Remaining = set.Txns[0].Length
	d.OnPreempt(2, set.Txns[0])
	if got := d.Next(2); got != set.Txns[1] {
		t.Fatalf("Next after rewind = %v, want t1 (no open snapshot left)", got)
	}
}

func TestDeferringName(t *testing.T) {
	inner := &queueSched{}
	d := NewDeferring(inner, 0)
	if d.Name() != "CA-FIFO" {
		t.Fatalf("Name() = %q", d.Name())
	}
	if d.window != DefaultWindow {
		t.Fatalf("window = %d, want DefaultWindow on non-positive input", d.window)
	}
}

// windowFixture: t0 writes key 1; t1 … t_places read it, so each conflicts
// with a busy t0; t_{places+1} touches key 7 only. Deadlines rise with the
// ID, so ASETS* orders the set as the FIFO policy does.
func windowFixture(t *testing.T, places int) *txn.Set {
	t.Helper()
	txns := make([]*txn.Transaction, places+2)
	sets := make([]keySets, places+2)
	for i := range txns {
		txns[i] = &txn.Transaction{ID: txn.ID(i), Deadline: 100 + float64(i), Length: 2, Weight: 1}
		sets[i] = keySets{reads: []txn.Key{1}}
	}
	sets[0] = keySets{writes: []txn.Key{1}}
	sets[places+1] = keySets{reads: []txn.Key{7}, writes: []txn.Key{7}}
	set := keyedSet(t, txns, sets...)
	set.ResetAll()
	return set
}

// TestDeferringWindowBound: with window w, a non-conflicting candidate w
// places behind a conflicting head is stolen past the w candidates before
// it; one w+1 places behind is not: the head is dispatched and no
// conflict_defer is emitted. It holds through Next over a policy without a
// Decider and through Decide over CA-ASETS*, and a window of 0 selects
// DefaultWindow.
func TestDeferringWindowBound(t *testing.T) {
	for _, window := range []int{1, 3, 0} {
		w := window
		if w == 0 {
			w = DefaultWindow
		}
		for _, places := range []int{w, w + 1} {
			for _, decide := range []bool{false, true} {
				set := windowFixture(t, places)
				var inner sched.Scheduler = &queueSched{}
				if decide {
					inner = core.New()
				}
				d := NewDeferring(inner, window)
				col := &obs.Collector{}
				d.SetSink(col)
				d.Init(set)
				for _, tx := range set.Txns {
					d.OnArrival(0, tx)
				}
				writer := set.Txns[0]
				if got := d.Next(0); got != writer {
					t.Fatalf("first Next = %v, want t0", got)
				}
				var got *txn.Transaction
				if decide {
					// t0 ran for a while and keeps its snapshot open.
					writer.Remaining = 1
					picks, ok := d.Decide(1, []*txn.Transaction{writer}, 2, nil, nil)
					if !ok || len(picks) != 2 || picks[0] != writer {
						t.Fatalf("window %d, %d places, Decide: picked %v, answered %v; want t0 and one more", window, places, txnIDs(picks), ok)
					}
					got = picks[1]
				} else {
					got = d.Next(0)
				}
				var want, jumped []txn.ID
				if places == w {
					want = []txn.ID{txn.ID(places + 1)}
					for i := 1; i <= places; i++ {
						jumped = append(jumped, txn.ID(i))
					}
				} else {
					want = []txn.ID{1}
				}
				var defers []txn.ID
				for _, ev := range col.Events() {
					if ev.Kind == obs.KindConflictDefer {
						defers = append(defers, ev.Txn)
					}
				}
				if g := txnIDs([]*txn.Transaction{got}); !slices.Equal(g, want) || !slices.Equal(defers, jumped) {
					t.Errorf("window %d, %d places, Decide %v: picked %v with conflict_defer for %v, want %v with %v",
						window, places, decide, g, defers, want, jumped)
				}
			}
		}
	}
}

// refOverlap merge-scans two sorted key sets for a common element.
func refOverlap(a, b []txn.Key) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			return true
		}
	}
	return false
}

// refBusy is a brute-force model of the wrapper's busy set: which
// transactions are checked out, which hold an open read snapshot, and the
// pairwise conflict test over them.
type refBusy struct {
	out, open []bool
}

func (r *refBusy) conflicts(set *txn.Set, c *txn.Transaction) bool {
	for _, o := range set.Txns {
		if o.ID == c.ID || !(r.out[o.ID] || r.open[o.ID]) {
			continue
		}
		if refOverlap(set.Writes(c.ID), set.Reads(o.ID)) || refOverlap(set.Reads(c.ID), set.Writes(o.ID)) {
			return true
		}
	}
	return false
}

// TestDeferringIndexMatchesPairwise drives the wrapper through random
// check-out, partial-preempt, rewound-preempt and completion sequences over
// Zipf-keyed sets whose reads overlap other transactions' writes and their
// own. After every step the per-key conflict test must agree with a
// pairwise scan over a reference busy list for every queued transaction,
// and once the set drains every per-key count must be back to zero.
func TestDeferringIndexMatchesPairwise(t *testing.T) {
	const n, servers = 60, 4
	for seed := uint64(0); seed < 40; seed++ {
		set := keyspaceFixture(t, n)
		ks := Keyspace{Keys: 24, Alpha: 0.9, Reads: 3, Writes: 2, ReadOnlyProb: 0.2}
		if err := Assign(set, ks, seed); err != nil {
			t.Fatal(err)
		}
		for _, tx := range set.Txns {
			tx.Length, tx.Remaining = 4, 4
		}
		inner := &queueSched{}
		d := NewDeferring(inner, 3)
		d.Init(set)
		ref := &refBusy{out: make([]bool, n), open: make([]bool, n)}
		src := rng.New(seed)
		var running []*txn.Transaction
		arrived, done := 0, 0
		for step := 0; done < n; step++ {
			switch op := src.Intn(4); {
			case op == 0 && arrived < n:
				d.OnArrival(0, set.Txns[arrived])
				arrived++
			case op == 1 && len(running) < servers && len(inner.q) > 0:
				c := d.Next(0)
				ref.out[c.ID] = true
				running = append(running, c)
			case len(running) > 0:
				i := src.Intn(len(running))
				c := running[i]
				running = append(running[:i], running[i+1:]...)
				ref.out[c.ID] = false
				switch src.Intn(3) {
				case 0: // partial preempt: the snapshot stays open
					c.Remaining = max(c.Remaining-1, 1)
					ref.open[c.ID] = true
					d.OnPreempt(0, c)
				case 1: // validation failure or crash: rewound to full length
					c.Remaining = c.Length
					ref.open[c.ID] = false
					d.OnPreempt(0, c)
				default:
					c.Remaining = 0
					ref.open[c.ID] = false
					d.OnCompletion(0, c)
					done++
				}
			default:
				continue
			}
			for _, c := range inner.q {
				if got, want := d.conflictsBusy(c), ref.conflicts(set, c); got != want {
					t.Fatalf("seed %d step %d: conflictsBusy(T%d) = %v, pairwise scan says %v",
						seed, step, c.ID, got, want)
				}
			}
		}
		for k := range d.readers {
			if d.readers[k] != 0 || d.writers[k] != 0 {
				t.Fatalf("seed %d: key %d still counted after drain: %d readers, %d writers",
					seed, k, d.readers[k], d.writers[k])
			}
		}
	}
}
