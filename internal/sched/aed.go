package sched

import (
	"sort"

	"repro/internal/rng"
	"repro/internal/txn"
)

// aed implements Adaptive Earliest Deadline from Haritsa, Livny and Carey
// (RTSS '91) — reference [5] of the paper, discussed in Section V as a
// feedback-driven hybrid. Ready transactions are ordered by a random key;
// the first HITcapacity of them form the HIT group, scheduled by EDF, and
// the remainder are served in random-key order. HITcapacity adapts by
// feedback: after each HIT-group completion the capacity is re-estimated as
// 1.05 * HitRatio(HIT) * |observed group|, so under overload the EDF-
// scheduled population shrinks toward the transactions that can still make
// their deadlines.
//
// AED targets deadline *hit ratio*, not tardiness — including it lets the
// experiments show why the paper's tardiness objective needs a different
// hybrid (ASETS*).
type aed struct {
	rt   ReadyTracker
	set  *txn.Set
	seed uint64
	src  rng.Source // restarted from seed at every Init

	key     []float64 // random priority key per transaction
	inHIT   []bool    // group membership at checkout time
	ready   []txn.ID  // ready transactions sorted by key
	cap     int       // HIT group capacity
	hitObs  float64   // EWMA of HIT-group deadline hits
	hitSeen bool
}

// NewAED constructs the Adaptive Earliest Deadline comparator. seed drives
// the random keys (the original assigns them uniformly at arrival).
func NewAED(seed uint64) Scheduler {
	return &aed{seed: seed}
}

func (a *aed) Name() string { return "AED" }

//lint:coldpath per-run setup: keys and group state are built before the event loop
func (a *aed) Init(set *txn.Set) {
	a.set = set
	a.rt.Reset(set)
	a.key = Zeroed(a.key, set.Len())
	a.inHIT = Zeroed(a.inHIT, set.Len())
	// Every run draws the same keys as a freshly constructed AED.
	a.src.Seed(a.seed)
	for i := range a.key {
		a.key[i] = a.src.Float64()
	}
	a.ready = a.ready[:0]
	// Initial capacity: optimistic (everything in the HIT group), as in the
	// original description; feedback shrinks it under overload.
	a.cap = set.Len()
	a.hitObs = 1
	a.hitSeen = false
}

// insert keeps the ready list sorted by key (ties by ID).
func (a *aed) insert(id txn.ID) {
	//lint:ignore hotpath-alloc the sort.Search closure does not escape its call
	i := sort.Search(len(a.ready), func(i int) bool {
		ki, kj := a.key[a.ready[i]], a.key[id]
		if ki != kj {
			return ki > kj
		}
		return a.ready[i] > id
	})
	//lint:ignore hotpath-alloc ready grows to the peak ready population during warm-up, then reuses capacity
	a.ready = append(a.ready, 0)
	copy(a.ready[i+1:], a.ready[i:])
	a.ready[i] = id
}

func (a *aed) remove(id txn.ID) {
	for i, r := range a.ready {
		if r == id {
			//lint:ignore hotpath-alloc removal splice shrinks within existing capacity; append never grows here
			a.ready = append(a.ready[:i], a.ready[i+1:]...)
			return
		}
	}
}

func (a *aed) OnArrival(now float64, t *txn.Transaction) {
	if a.rt.Arrive(t) {
		a.insert(t.ID)
	}
}

func (a *aed) Next(now float64) *txn.Transaction {
	if len(a.ready) == 0 {
		return nil
	}
	hit := a.cap
	if hit > len(a.ready) {
		hit = len(a.ready)
	}
	var chosen txn.ID
	if hit > 0 {
		// HIT group: earliest deadline among the hit lowest-key entries.
		chosen = a.ready[0]
		for _, id := range a.ready[:hit] {
			if a.set.ByID(id).Deadline < a.set.ByID(chosen).Deadline {
				chosen = id
			}
		}
		a.inHIT[chosen] = true
	} else {
		// Degenerate capacity: pure random-key order.
		chosen = a.ready[0]
		a.inHIT[chosen] = false
	}
	a.remove(chosen)
	return a.set.ByID(chosen)
}

func (a *aed) OnPreempt(now float64, t *txn.Transaction) {
	a.insert(t.ID)
}

func (a *aed) OnCompletion(now float64, t *txn.Transaction) {
	if a.inHIT[t.ID] {
		hitVal := 0.0
		if now <= t.Deadline {
			hitVal = 1
		}
		// EWMA feedback with the original's 1.05 expansion headroom.
		if !a.hitSeen {
			a.hitObs = hitVal
			a.hitSeen = true
		} else {
			a.hitObs = 0.9*a.hitObs + 0.1*hitVal
		}
		next := int(1.05 * a.hitObs * float64(a.set.Len()))
		if next < 1 {
			next = 1
		}
		a.cap = next
	}
	for _, r := range a.rt.Complete(t) {
		a.insert(r.ID)
	}
}
