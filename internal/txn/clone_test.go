package txn

import (
	"reflect"
	"testing"
)

// cloneFixture builds a small workflow workload with non-trivial Deps,
// reverse edges and read/write-set structure, the shapes Clone must
// deep-copy.
func cloneFixture(t *testing.T) *Set {
	t.Helper()
	txns := []*Transaction{
		{ID: 0, Arrival: 0, Deadline: 10, Length: 2, Weight: 1},
		{ID: 1, Arrival: 1, Deadline: 12, Length: 3, Weight: 2, Deps: []ID{0}},
		{ID: 2, Arrival: 2, Deadline: 15, Length: 1, Weight: 1, Deps: []ID{0, 1}},
		{ID: 3, Arrival: 3, Deadline: 20, Length: 4, Weight: 5},
	}
	set, err := NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.AssignKeys(0, drawSets([2][]Key{{1, 3}, {2}}, [2][]Key{{2}, nil})); err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCloneDeepEqual: a clone is structurally identical to its source,
// including dependency and reverse-dependency edges and runtime state.
func TestCloneDeepEqual(t *testing.T) {
	set := cloneFixture(t)
	// Give the runtime fields non-zero values so the struct copy is covered.
	set.Txns[1].Remaining = 1.5
	set.Txns[1].Finished = true
	set.Txns[1].FinishTime = 7

	clone := set.Clone()
	if !reflect.DeepEqual(set, clone) {
		t.Fatalf("clone differs from source:\nsrc   %+v\nclone %+v", set, clone)
	}
}

// TestCloneMutationIsolation: no write through the clone — transaction
// fields, Deps entries, reverse edges, key sets — may reach the original,
// and vice versa.
func TestCloneMutationIsolation(t *testing.T) {
	set := cloneFixture(t)
	pristine := set.Clone() // reference copy for comparison
	clone := set.Clone()

	clone.Txns[0].Remaining = 99
	clone.Txns[0].FinishTime = 42
	clone.Reads(0)[0] = 7
	clone.Writes(0)[0] = 9
	clone.Txns[1].Deps[0] = 3
	clone.Txns[2].Deps = append(clone.Txns[2].Deps, 3)
	clone.DependentsOf(0)[0] = 3
	clone.Txns = append(clone.Txns, &Transaction{ID: 4, Deadline: 1, Length: 1})

	if !reflect.DeepEqual(set, pristine) {
		t.Fatalf("mutating the clone changed the original:\nwant %+v\ngot  %+v", pristine, set)
	}

	// And the reverse direction: the clone is not a view of the original.
	fresh := set.Clone()
	set.Txns[3].Remaining = -1
	set.Txns[1].Deps[0] = 2
	set.DependentsOf(0)[0] = 2
	set.Reads(0)[1] = 5
	if fresh.Txns[3].Remaining == -1 || fresh.Txns[1].Deps[0] == 2 || fresh.DependentsOf(0)[0] == 2 || fresh.Reads(0)[1] == 5 {
		t.Fatal("mutating the original leaked into an existing clone")
	}
}

// TestCloneSharesNoSlices: Deps, reverse-edge and key-set backing arrays
// must be distinct allocations whenever non-empty.
func TestCloneSharesNoSlices(t *testing.T) {
	set := cloneFixture(t)
	clone := set.Clone()
	for i, src := range set.Txns {
		if len(src.Deps) > 0 && &src.Deps[0] == &clone.Txns[i].Deps[0] {
			t.Fatalf("txn %d: clone shares the Deps backing array", i)
		}
		if src == clone.Txns[i] {
			t.Fatalf("txn %d: clone shares the Transaction pointer", i)
		}
		if deps := set.DependentsOf(src.ID); len(deps) > 0 && &deps[0] == &clone.DependentsOf(src.ID)[0] {
			t.Fatalf("DependentsOf(%d): clone shares the backing array", i)
		}
	}
	if &set.keys[0] == &clone.keys[0] || &set.bounds[0] == &clone.bounds[0] {
		t.Fatal("clone shares the key slab or its bounds")
	}
}

// TestClonePreservesNilness: nil Deps stay nil (not empty non-nil slices),
// and an unkeyed set's clone holds no key storage, so encodings and
// DeepEqual comparisons of clones match the source.
func TestClonePreservesNilness(t *testing.T) {
	set := cloneFixture(t)
	clone := set.Clone()
	for i, src := range set.Txns {
		if (src.Deps == nil) != (clone.Txns[i].Deps == nil) {
			t.Fatalf("txn %d: Deps nil-ness changed: src nil=%v clone nil=%v",
				i, src.Deps == nil, clone.Txns[i].Deps == nil)
		}
	}
	plain := mustSet(t, mk(0, 0, 5, 1), mk(1, 0, 5, 1, 0))
	if c := plain.Clone(); c.keys != nil || c.bounds != nil {
		t.Fatal("clone of an unkeyed set holds key storage (plain workloads must stay keyless after Clone)")
	}
}

// TestCloneWorkflowsIndependent: workflows derived from a clone have the
// same structure as the source's — Clone preserves everything BuildWorkflows
// reads — while finishing a clone's member only drains the clone's workflow.
func TestCloneWorkflowsIndependent(t *testing.T) {
	set := cloneFixture(t)
	clone := set.Clone()
	src := BuildWorkflows(set)
	dup := BuildWorkflows(clone)
	if len(src) != len(dup) {
		t.Fatalf("clone yields %d workflows, source %d", len(dup), len(src))
	}
	for i := range src {
		if src[i].Root != dup[i].Root || !reflect.DeepEqual(src[i].Members, dup[i].Members) {
			t.Fatalf("workflow %d differs: src %+v clone %+v", i, src[i], dup[i])
		}
	}
	// Workflows capture their set's transactions: completing one through the
	// clone's workflow must not affect the source's pending members.
	before := src[0].Pending()
	clone.Txns[0].Finished = true
	dup[0].Complete(0)
	if dup[0].Pending() != before-1 {
		t.Fatalf("clone workflow pending %d after Complete, want %d", dup[0].Pending(), before-1)
	}
	if src[0].Pending() != before {
		t.Fatal("completing a member via the clone's workflow drained the source's workflow")
	}
}
