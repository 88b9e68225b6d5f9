package txn

import (
	"fmt"
	"math"
	"slices"
)

// Workflow is the scheduling entity of the workflow-level ASETS* policy: the
// dependency closure of one root transaction (Section II-A). A transaction
// may belong to several workflows when dependency DAGs share nodes; each
// workflow tracks which of its members are still pending and exposes the
// paper's two distinguished transactions:
//
//   - the head transaction (Definition 8): a pending member that is ready to
//     execute (arrived, empty effective dependency list), and
//   - the representative transaction (Definition 9): a virtual transaction
//     carrying the minimum deadline, minimum remaining processing time and
//     maximum weight over the pending members.
type Workflow struct {
	// ID is the workflow identifier (the dense index over roots).
	ID int
	// Root is the transaction that defines the workflow.
	Root ID
	// Members lists all transactions in the closure, sorted by ID.
	Members []ID
	// self backs Members for a singleton workflow, so carving one needs no
	// storage beyond the Workflow and its pending slot.
	self [1]ID

	// pending holds the unfinished members in no particular order.
	pending []*Transaction
}

// Representative captures Definition 9's virtual transaction for one
// workflow at one instant.
type Representative struct {
	// Deadline is the earliest deadline among pending members.
	Deadline float64
	// Remaining is the minimum remaining processing time among pending
	// members.
	Remaining float64
	// Weight is the maximum weight among pending members.
	Weight float64
}

// Slack returns the representative's slack at time now, analogous to
// Definition 2 applied to the virtual transaction.
func (r Representative) Slack(now float64) float64 {
	return r.Deadline - (now + r.Remaining)
}

// CanMeetDeadline reports whether the workflow belongs in the EDF-List:
// t + r_rep <= d_rep (Section III-B).
func (r Representative) CanMeetDeadline(now float64) bool {
	return now+r.Remaining <= r.Deadline
}

// Density returns the representative's HDF priority w_rep / r_rep.
func (r Representative) Density() float64 {
	if r.Remaining <= 0 {
		panic(fmt.Sprintf("txn: representative density with remaining %v", r.Remaining))
	}
	return r.Weight / r.Remaining
}

// Grouping is the workflow structure of a set without per-run state: which
// transactions each workflow holds, and nothing else. It carries no pointers
// and no pending sets, so a scheduler can keep it for the whole set and carve
// a Workflow only when one is needed.
//
// Workflow i is the dependency closure of root roots[i], whose members are
// members[ends[i-1]:ends[i]], sorted by ID. A singleton grouping stores
// nothing: workflow i is {T_i}.
type Grouping struct {
	n       int     // number of workflows
	roots   []ID    // nil for a singleton grouping
	members []ID    // the closures, concatenated in root order
	ends    []int32 // ends[i] is the end of workflow i's members
}

// GroupWorkflows derives the grouping of s from its dependency lists: one
// workflow per root, containing the root's dependency closure, in root ID
// order. On a set without dependencies it is the singleton grouping.
//
//lint:coldpath workflow grouping is per-run setup (scheduler Init)
func GroupWorkflows(s *Set) Grouping {
	if s.Independent() {
		return GroupSingletons(s)
	}
	roots := s.Roots()
	w := newClosureWalker(s.Len())
	// Closures overlap only where DAGs share nodes, so n members is the
	// exact total for chains and forests.
	members := make([]ID, 0, s.Len())
	ends := make([]int32, len(roots))
	for i, root := range roots {
		members = w.appendClosure(s, members, root)
		ends[i] = int32(len(members))
	}
	return Grouping{n: len(roots), roots: roots, members: members, ends: ends}
}

// GroupSingletons makes every transaction of s its own workflow, ignoring
// dependency structure for grouping purposes (readiness still honours
// dependencies — that is the scheduler's job). This grouping realizes the
// paper's "Ready" baseline of Section III-B: dependent transactions wait
// invisibly and surface as independent scheduling entities once their
// dependency lists drain. On an independent workload it coincides with
// GroupWorkflows, so transaction-level ASETS* (Section III-A) is the same
// engine run over singleton entities.
func GroupSingletons(s *Set) Grouping { return Grouping{n: s.Len()} }

// Len returns the number of workflows.
func (g *Grouping) Len() int { return g.n }

// Singleton reports whether workflow i is {T_i} for every i.
func (g *Grouping) Singleton() bool { return g.roots == nil }

// Size returns the number of members of workflow i.
func (g *Grouping) Size(i int) int {
	if g.Singleton() {
		return 1
	}
	if i == 0 {
		return int(g.ends[0])
	}
	return int(g.ends[i] - g.ends[i-1])
}

// Members returns the member IDs of workflow i, sorted. A singleton grouping
// stores none and returns nil: its workflow i is {T_i}.
func (g *Grouping) Members(i int) []ID {
	if g.Singleton() {
		return nil
	}
	hi := int(g.ends[i])
	return g.members[hi-g.Size(i) : hi : hi]
}

// Carve initializes *wf as workflow i of g with every member pending. The
// pending set takes the first Size(i) slots of pending, capped there so it
// cannot grow into a neighbour's storage; a singleton workflow keeps its
// member list inside wf, so wf must not be copied afterwards. Carve
// allocates nothing.
func (g *Grouping) Carve(s *Set, i int, wf *Workflow, pending []*Transaction) {
	wf.ID = i
	if g.Singleton() {
		wf.Root = ID(i)
		wf.self[0] = ID(i)
		wf.Members = wf.self[:]
	} else {
		wf.Root = g.roots[i]
		wf.Members = g.Members(i)
	}
	pending = pending[:len(wf.Members):len(wf.Members)]
	for j, id := range wf.Members {
		pending[j] = s.ByID(id)
	}
	wf.pending = pending
}

// carveAll carves every workflow of g, with all members pending, out of one
// slab of workflows and one of pending slots.
func (g *Grouping) carveAll(s *Set) []*Workflow {
	slab := make([]Workflow, g.n)
	wfs := make([]*Workflow, g.n)
	slots := g.n
	if !g.Singleton() {
		slots = len(g.members)
	}
	pending := make([]*Transaction, slots)
	lo := 0
	for i := range slab {
		hi := lo + g.Size(i)
		g.Carve(s, i, &slab[i], pending[lo:hi])
		wfs[i] = &slab[i]
		lo = hi
	}
	return wfs
}

// BuildWorkflows derives the workflow set from the dependency lists of s:
// one workflow per root, containing the root's dependency closure. Workflows
// are returned sorted by root ID and initialized with all members pending.
// It is GroupWorkflows with every workflow carved; on a set without
// dependencies the result equals SingletonWorkflows.
func BuildWorkflows(s *Set) []*Workflow {
	g := GroupWorkflows(s)
	return g.carveAll(s)
}

// SingletonWorkflows wraps every transaction of s in its own one-member
// workflow: GroupSingletons with every workflow carved.
func SingletonWorkflows(s *Set) []*Workflow {
	g := GroupSingletons(s)
	return g.carveAll(s)
}

// Pending returns the number of members not yet finished.
func (w *Workflow) Pending() int { return len(w.pending) }

// Done reports whether every member transaction has finished.
func (w *Workflow) Done() bool { return len(w.pending) == 0 }

// Contains reports whether id is still pending in this workflow.
func (w *Workflow) Contains(id ID) bool { return w.pendingIndex(id) >= 0 }

// pendingIndex returns the position of id in the pending set, or -1.
func (w *Workflow) pendingIndex(id ID) int {
	for i, t := range w.pending {
		if t.ID == id {
			return i
		}
	}
	return -1
}

// Complete removes a finished member. It returns true when the transaction
// was a pending member of this workflow. The pending set is unordered: the
// last member moves into the freed slot, and every reduction over the set
// (Head, RepresentativeExcluding) is independent of that order.
func (w *Workflow) Complete(id ID) bool {
	i := w.pendingIndex(id)
	if i < 0 {
		return false
	}
	last := len(w.pending) - 1
	w.pending[i] = w.pending[last]
	w.pending = w.pending[:last]
	return true
}

// Representative recomputes Definition 9 over the pending members. It panics
// on an empty workflow: a done workflow must leave the scheduler's lists
// before the representative is consulted.
func (w *Workflow) Representative() Representative {
	return w.RepresentativeExcluding(-1)
}

// RepresentativeExcluding computes the representative over the pending
// members excluding the transaction with the given ID (pass a negative ID
// to exclude nothing). This implements the alternative reading of the
// paper's Example 4, where the head and representative of a two-transaction
// workflow are distinct transactions; DESIGN.md discusses the ambiguity and
// core's WithHeadExcludedRep option ablates it. When the excluded
// transaction is the only pending member it represents itself, so singleton
// workflows keep Definition 6/7 semantics under either reading.
func (w *Workflow) RepresentativeExcluding(exclude ID) Representative {
	if len(w.pending) == 0 {
		panic(fmt.Sprintf("txn: Representative of completed workflow %d", w.ID))
	}
	rep := Representative{
		Deadline:  math.Inf(1),
		Remaining: math.Inf(1),
		Weight:    math.Inf(-1),
	}
	found := false
	// Per-field min/max is commutative, so the pending order cannot change
	// the result.
	for _, t := range w.pending {
		if t.ID == exclude {
			continue
		}
		found = true
		if t.Deadline < rep.Deadline {
			rep.Deadline = t.Deadline
		}
		if t.Remaining < rep.Remaining {
			rep.Remaining = t.Remaining
		}
		if t.Weight > rep.Weight {
			rep.Weight = t.Weight
		}
	}
	if !found {
		return w.RepresentativeExcluding(-1)
	}
	return rep
}

// Head selects Definition 8's head transaction at time now: a pending member
// that has arrived and whose dependencies (restricted to unfinished
// transactions anywhere in the set) are all complete. The paper's chain
// workflows have a unique head; in DAGs with shared members several members
// can be ready simultaneously, in which case the earliest-deadline ready
// member is returned (ties broken by highest density, then lowest ID) — the
// generalization documented in DESIGN.md. Head returns nil when no member is
// currently ready (e.g. the next member has not arrived yet).
//
// ready reports whether a given transaction is ready to execute; the
// scheduler supplies it because readiness depends on global completion
// state, not only on this workflow's members.
func (w *Workflow) Head(ready func(*Transaction) bool) *Transaction {
	var best *Transaction
	// headBefore is a strict total order with an ID tie-break, so the min is
	// independent of the pending order.
	for _, t := range w.pending {
		if !ready(t) {
			continue
		}
		if best == nil || headBefore(t, best) {
			best = t
		}
	}
	return best
}

// headBefore orders candidate heads: earliest deadline first, then highest
// density, then lowest ID for full determinism.
func headBefore(a, b *Transaction) bool {
	//lint:ignore floatcmp comparator tie-break: exact equality only decides which key breaks the tie, both orders are valid schedules
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	da, db := a.Weight/a.Remaining, b.Weight/b.Remaining
	if da != db {
		return da > db
	}
	return a.ID < b.ID
}

// PendingIDs returns the pending member IDs sorted ascending (for tests and
// deterministic rendering).
func (w *Workflow) PendingIDs() []ID {
	out := make([]ID, len(w.pending))
	for i, t := range w.pending {
		out[i] = t.ID
	}
	slices.Sort(out)
	return out
}

// Reset restores all members to pending (used when replaying a workload),
// reusing the pending set's storage.
func (w *Workflow) Reset(s *Set) {
	w.pending = w.pending[:0]
	for _, id := range w.Members {
		w.pending = append(w.pending, s.ByID(id))
	}
}

// String renders a compact workflow summary.
func (w *Workflow) String() string {
	return fmt.Sprintf("K%d{root=T%d members=%v pending=%d}", w.ID, w.Root, w.Members, len(w.pending))
}
