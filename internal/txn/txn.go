// Package txn defines the transaction and workflow model of the paper
// "Adaptive Scheduling of Web Transactions" (ICDE 2009): web transactions
// with arrival times, soft deadlines, processing lengths, weights and
// dependency lists (Definition 1), slack (Definition 2), and workflows —
// dependency-closed sets of transactions rooted at transactions that appear
// in no dependency list (Section II-A).
package txn

import (
	"fmt"
	"math"
	"slices"
)

// ID identifies a transaction within one workload. IDs are dense indices
// assigned by the workload generator, which lets schedulers use slices
// instead of maps for per-transaction bookkeeping.
type ID int

// Key identifies one row of the abstract keyspace a contended workload
// draws its read/write sets from (docs/CONTENTION.md). Keys are dense
// indices in [0, Keyspace.Keys), which lets the validation engine keep a
// flat version array instead of a map.
type Key int

// Transaction models one web transaction T_i (Definition 1 of the paper).
// The scheduling-time fields (Remaining, FinishTime, Started, Finished,
// Shed) are mutated by the simulator; everything else is immutable workload
// data. Data the paper's record does not have — a contended workload's read
// and write sets, the reverse dependency edges — lives on the Set.
type Transaction struct {
	// ID is the dense workload-local identifier of the transaction.
	ID ID
	// Arrival is a_i, the time the transaction is submitted to the system.
	Arrival float64
	// Deadline is d_i, the soft deadline derived from the fragment's SLA.
	Deadline float64
	// Length is l_i (also called r_i at submission), the total processing
	// time the transaction needs on the backend database.
	Length float64
	// Weight is w_i, the importance of the transaction's fragment. Unit
	// weights reduce weighted tardiness to plain tardiness.
	Weight float64
	// Deps is l_i, the direct dependency list: IDs of transactions whose
	// output this transaction consumes. Empty means independent.
	Deps []ID

	// Remaining is the processing time still needed; the simulator
	// decrements it as the transaction runs (preemptive-resume).
	Remaining float64
	// FinishTime is f_i, valid only once Finished is true.
	FinishTime float64
	// Started reports whether the transaction has received any service.
	Started bool
	// Finished reports whether the transaction has completed.
	Finished bool
	// Shed reports that the admission controller rejected the transaction
	// at arrival: it never entered the scheduler and is excluded from the
	// tardiness aggregates (which cover admitted transactions only).
	Shed bool
}

// Slack returns s_i = d_i - (now + Remaining) (Definition 2): the extra time
// the transaction can wait and still meet its deadline if executed without
// further interruption.
func (t *Transaction) Slack(now float64) float64 {
	return t.Deadline - (now + t.Remaining)
}

// CanMeetDeadline reports whether the transaction would still meet its
// deadline if it started executing now (Definition 6 membership test for the
// EDF-List).
func (t *Transaction) CanMeetDeadline(now float64) bool {
	return now+t.Remaining <= t.Deadline
}

// Tardiness returns t_i given a finish time (Definition 3): zero when the
// transaction finished by its deadline, otherwise the overrun.
func (t *Transaction) Tardiness() float64 {
	if !t.Finished || t.FinishTime <= t.Deadline {
		return 0
	}
	return t.FinishTime - t.Deadline
}

// Density returns w_i / r_i, the HDF priority. It panics on a non-positive
// remaining time because a finished transaction has no meaningful density.
func (t *Transaction) Density() float64 {
	if t.Remaining <= 0 {
		panic(fmt.Sprintf("txn: Density of transaction %d with remaining %v", t.ID, t.Remaining))
	}
	return t.Weight / t.Remaining
}

// Independent reports whether the transaction has an empty dependency list.
func (t *Transaction) Independent() bool { return len(t.Deps) == 0 }

// Reset restores the scheduling-time state so a workload can be replayed
// under another policy.
func (t *Transaction) Reset() {
	t.Remaining = t.Length
	t.Started = false
	t.Finished = false
	t.FinishTime = 0
	t.Shed = false
}

// String renders a compact human-readable summary for traces and examples.
func (t *Transaction) String() string {
	return fmt.Sprintf("T%d{a=%.2f d=%.2f l=%.2f w=%.1f deps=%v}",
		t.ID, t.Arrival, t.Deadline, t.Length, t.Weight, t.Deps)
}

// Set is an immutable-by-convention collection of transactions indexed by ID
// (Txns[i].ID == i always holds after Validate).
//
// Validate derives the set's structural facts: the reverse edges that
// DependentsOf reads and the two switches Independent and Keyed, which the
// schedulers and run loops read instead of scanning the set again. A
// caller that mutates Deps of a validated set must validate it again before
// the facts hold. Key sets are installed only through AssignKeys.
type Set struct {
	Txns []*Transaction

	// dependents[i] lists the IDs of transactions that directly depend on
	// transaction i (the reverse edges of Deps); nil when no transaction
	// has a dependency. Built by Validate.
	dependents [][]ID
	// keys holds every transaction's write set and then its read set, in ID
	// order; transaction i's write set is keys[bounds[2i]:bounds[2i+1]] and
	// its read set keys[bounds[2i+1]:bounds[2i+2]]. Both nil on an unkeyed
	// set. Installed by AssignKeys.
	keys   []Key
	bounds []int32

	independent bool // no transaction has a dependency
	keyed       bool // some transaction has a read or a write set
}

// NewSet wraps txns into a Set, building reverse dependency edges and
// validating the workload invariants.
func NewSet(txns []*Transaction) (*Set, error) {
	s := &Set{Txns: txns}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the structural invariants a workload must satisfy: dense
// IDs, positive lengths, non-negative arrivals, deadlines no earlier than
// arrival, valid dependency references, an acyclic dependency graph, and
// key sets (if any) that cover exactly the set's transactions. It also
// (re)builds the reverse-edge index and the Independent fact.
func (s *Set) Validate() error {
	n := len(s.Txns)
	independent := true
	for i, t := range s.Txns {
		if t == nil {
			return fmt.Errorf("txn: set slot %d is nil", i)
		}
		if int(t.ID) != i {
			return fmt.Errorf("txn: transaction at slot %d has ID %d (IDs must be dense)", i, t.ID)
		}
		if t.Length <= 0 {
			return fmt.Errorf("txn: transaction %d has non-positive length %v", t.ID, t.Length)
		}
		if t.Arrival < 0 {
			return fmt.Errorf("txn: transaction %d has negative arrival %v", t.ID, t.Arrival)
		}
		if t.Deadline < t.Arrival {
			return fmt.Errorf("txn: transaction %d has deadline %v before arrival %v", t.ID, t.Deadline, t.Arrival)
		}
		if t.Weight <= 0 {
			return fmt.Errorf("txn: transaction %d has non-positive weight %v", t.ID, t.Weight)
		}
		seen := make(map[ID]bool, len(t.Deps))
		for _, d := range t.Deps {
			if d < 0 || int(d) >= n {
				return fmt.Errorf("txn: transaction %d depends on unknown transaction %d", t.ID, d)
			}
			if d == t.ID {
				return fmt.Errorf("txn: transaction %d depends on itself", t.ID)
			}
			if seen[d] {
				return fmt.Errorf("txn: transaction %d lists dependency %d twice", t.ID, d)
			}
			seen[d] = true
		}
		independent = independent && len(t.Deps) == 0
	}
	if s.keyed && len(s.bounds) != 2*n+1 {
		return fmt.Errorf("txn: key sets cover %d transactions, set has %d", len(s.bounds)/2, n)
	}
	s.dependents = reverseEdges(s.Txns)
	// A set without dependencies is trivially acyclic.
	if !independent {
		if _, err := s.TopologicalOrder(); err != nil {
			return err
		}
	}
	s.independent = independent
	return nil
}

// reverseEdges builds the reverse-edge table of txns, or returns nil when
// no transaction has a dependency.
func reverseEdges(txns []*Transaction) [][]ID {
	var rev [][]ID
	for _, t := range txns {
		for _, d := range t.Deps {
			if rev == nil {
				rev = make([][]ID, len(txns))
			}
			rev[d] = append(rev[d], t.ID)
		}
	}
	return rev
}

// DependentsOf returns the IDs of the transactions that directly depend on
// transaction id (the reverse edges of Deps), in ID order, as of the last
// Validate. The slice belongs to the set: callers must not modify it.
func (s *Set) DependentsOf(id ID) []ID {
	if s.dependents == nil {
		return nil
	}
	return s.dependents[id]
}

// Independent reports whether no transaction of the set has a dependency,
// as of the last Validate.
func (s *Set) Independent() bool { return s.independent }

// Keyed reports whether some transaction of the set carries a read or a
// write set, as of the last AssignKeys: the switch that turns on
// commit-time validation in the run loops (docs/CONTENTION.md).
func (s *Set) Keyed() bool { return s.keyed }

// Reads returns transaction id's read set: the rows of the workload's
// keyspace it reads, sorted ascending and duplicate-free (AssignKeys
// enforces this so conflict tests can merge-scan in O(len)). It is empty on
// the paper's contention-free workloads. A transaction may read keys it
// also writes (read-your-own-writes is not a conflict with itself). The
// slice belongs to the set: callers must not modify it.
func (s *Set) Reads(id ID) []Key {
	if s.bounds == nil {
		return nil
	}
	lo, hi := s.bounds[2*id+1], s.bounds[2*id+2]
	return s.keys[lo:hi:hi]
}

// Writes returns transaction id's write set; see Reads.
func (s *Set) Writes(id ID) []Key {
	if s.bounds == nil {
		return nil
	}
	lo, hi := s.bounds[2*id], s.bounds[2*id+1]
	return s.keys[lo:hi:hi]
}

// AssignKeys replaces the key sets of every transaction with the ones draw
// appends and records the Keyed fact. For each transaction, in ID order,
// draw appends the write set and then the read set to keys and returns the
// extended slice and the write set's length; sizeHint is the capacity the
// slab starts with. The set keeps the slab, or nothing when every set is
// empty, and then it is unkeyed. AssignKeys checks only the sets it
// installs, so a validated set stays validated without a second pass over
// the rest of its invariants; on an error the set's key sets are unchanged.
func (s *Set) AssignKeys(sizeHint int, draw func(id ID, keys []Key) ([]Key, int)) error {
	n := len(s.Txns)
	keys := make([]Key, 0, sizeHint)
	bounds := make([]int32, 2*n+1)
	for i := range n {
		id, start := ID(i), len(keys)
		var writes int
		keys, writes = draw(id, keys)
		if writes < 0 || start+writes > len(keys) {
			return fmt.Errorf("txn: transaction %d drew a write set of %d keys but appended %d keys", id, writes, len(keys)-start)
		}
		mid := start + writes
		if err := validKeySet(id, "write", keys[start:mid]); err != nil {
			return err
		}
		if err := validKeySet(id, "read", keys[mid:]); err != nil {
			return err
		}
		bounds[2*i+1], bounds[2*i+2] = int32(mid), int32(len(keys))
	}
	if len(keys) == 0 {
		s.keys, s.bounds, s.keyed = nil, nil, false
		return nil
	}
	s.keys, s.bounds, s.keyed = keys, bounds, true
	return nil
}

// Finite reports whether v is neither NaN nor infinite. Configuration
// validators check it before their range checks: every comparison with NaN
// is false, so a range check alone would accept it.
func Finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validKeySet checks one access set: non-negative keys, sorted ascending,
// no duplicates. The sorted/dedup invariant is what lets conflict tests
// merge-scan two sets in O(len) without allocating.
func validKeySet(id ID, kind string, keys []Key) error {
	for i, k := range keys {
		if k < 0 {
			return fmt.Errorf("txn: transaction %d has negative %s key %d", id, kind, k)
		}
		if i > 0 && keys[i-1] >= k {
			return fmt.Errorf("txn: transaction %d %s set is not sorted and duplicate-free at index %d", id, kind, i)
		}
	}
	return nil
}

// Len returns the number of transactions in the set.
func (s *Set) Len() int { return len(s.Txns) }

// ByID returns the transaction with the given ID.
func (s *Set) ByID(id ID) *Transaction { return s.Txns[id] }

// ResetAll restores every transaction's scheduling-time state.
func (s *Set) ResetAll() {
	for _, t := range s.Txns {
		t.Reset()
	}
}

// Clone returns a deep copy of the set: every transaction (including its
// scheduling-time state and dependency list), the reverse-edge index, the
// key sets and the Independent and Keyed facts are copied, so mutating the
// clone — running it through a simulator, shedding, fault injection,
// arrival rewrites — never touches the original. Workflows are derived
// structures (BuildWorkflows constructs them from a set), so a clone's
// workflows are built from the clone and share nothing either.
//
// Clone exists for the parallel experiment engine (internal/runner): each
// concurrent run owns a private copy of the workload while the original
// remains reusable. The copy preserves the exact float64 bits and slice
// nil-ness of the original, so a clone-then-run is byte-identical to an
// original-run (see docs/PARALLELISM.md).
//
// The records are carved from one slab and the dependency lists from
// another, as the workload generator builds them, so a clone costs a
// constant number of allocations. Each carved list has its own capacity:
// appending to one reallocates instead of overwriting its neighbour.
func (s *Set) Clone() *Set {
	c := &Set{
		Txns:        make([]*Transaction, len(s.Txns)),
		keys:        slices.Clone(s.keys),
		bounds:      slices.Clone(s.bounds),
		independent: s.independent,
		keyed:       s.keyed,
	}
	records := make([]Transaction, len(s.Txns))
	n := 0
	for _, t := range s.Txns {
		n += len(t.Deps)
	}
	deps := make([]ID, n)
	for i, t := range s.Txns {
		records[i] = *t
		if t.Deps != nil {
			records[i].Deps, deps = carveIDs(deps, t.Deps)
		}
		c.Txns[i] = &records[i]
	}
	if s.dependents != nil {
		c.dependents = make([][]ID, len(s.dependents))
		n = 0
		for _, d := range s.dependents {
			n += len(d)
		}
		rev := make([]ID, n)
		for i, d := range s.dependents {
			if d != nil {
				c.dependents[i], rev = carveIDs(rev, d)
			}
		}
	}
	return c
}

// carveIDs copies src into the front of slab and returns the copy, capped
// at its length, and the rest of slab.
func carveIDs(slab, src []ID) (carved, rest []ID) {
	n := copy(slab, src)
	return slab[:n:n], slab[n:]
}

// TopologicalOrder returns the transaction IDs in an order where every
// transaction appears after all of its dependencies, or an error if the
// dependency graph has a cycle (which would deadlock any scheduler).
func (s *Set) TopologicalOrder() ([]ID, error) {
	n := len(s.Txns)
	indeg := make([]int, n)
	for _, t := range s.Txns {
		indeg[t.ID] = len(t.Deps)
	}
	rev := s.dependents
	if rev == nil {
		// A set validated as independent keeps no table, but its Deps may
		// have gained edges since, so they are read afresh rather than
		// trusting the Independent fact.
		rev = reverseEdges(s.Txns)
	}
	queue := make([]ID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, ID(i))
		}
	}
	order := make([]ID, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		if rev == nil {
			continue
		}
		for _, dep := range rev[id] {
			indeg[dep]--
			if indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("txn: dependency graph contains a cycle (%d of %d transactions orderable)", len(order), n)
	}
	return order, nil
}

// Roots returns the IDs of transactions that appear in no dependency list:
// each one defines a workflow (Section II-A: "a workflow is defined for
// every transaction that does not appear in any dependency list").
func (s *Set) Roots() []ID {
	isDep := make([]bool, len(s.Txns))
	for _, t := range s.Txns {
		for _, d := range t.Deps {
			isDep[d] = true
		}
	}
	var roots []ID
	for i, used := range isDep {
		if !used {
			roots = append(roots, ID(i))
		}
	}
	return roots
}

// Closure returns the dependency closure of id: the transaction itself plus
// everything it transitively depends on, sorted by ID.
func (s *Set) Closure(id ID) []ID {
	return newClosureWalker(s.Len()).appendClosure(s, nil, id)
}

// closureWalker computes dependency closures for many roots with one
// visited-stamp array and one DFS stack, instead of a seen set per root.
type closureWalker struct {
	stamp []int32 // the walk that last visited each transaction
	walk  int32
	stack []ID
}

func newClosureWalker(n int) *closureWalker {
	return &closureWalker{stamp: make([]int32, n)}
}

// appendClosure appends the closure of root to dst, sorted by ID.
func (w *closureWalker) appendClosure(s *Set, dst []ID, root ID) []ID {
	w.walk++
	start := len(dst)
	w.stamp[root] = w.walk
	dst = append(dst, root)
	w.stack = append(w.stack[:0], root)
	for len(w.stack) > 0 {
		cur := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for _, d := range s.Txns[cur].Deps {
			if w.stamp[d] != w.walk {
				w.stamp[d] = w.walk
				dst = append(dst, d)
				w.stack = append(w.stack, d)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}
