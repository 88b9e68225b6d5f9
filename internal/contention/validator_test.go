package contention

import (
	"testing"

	"repro/internal/txn"
)

// validatorFixture builds a hand-keyed set: reader 0 reads key 5, writer 1
// writes key 5, bystander 2 touches key 9 only.
func validatorFixture(t *testing.T) *txn.Set {
	t.Helper()
	txns := []*txn.Transaction{
		{ID: 0, Deadline: 10, Length: 1, Weight: 1},
		{ID: 1, Deadline: 10, Length: 1, Weight: 1},
		{ID: 2, Deadline: 10, Length: 1, Weight: 1},
	}
	return keyedSet(t, txns,
		keySets{reads: []txn.Key{5}},
		keySets{reads: []txn.Key{2}, writes: []txn.Key{5}},
		keySets{reads: []txn.Key{9}, writes: []txn.Key{9}})
}

func TestNewValidatorNilOnKeylessSet(t *testing.T) {
	set, err := txn.NewSet([]*txn.Transaction{{ID: 0, Deadline: 1, Length: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if v := NewValidator(set); v != nil {
		t.Fatal("keyless set got a validator; plain workloads must stay on the pre-contention path")
	}
}

// TestValidatorInvalidation is the core Block-STM loop: a reader whose
// incarnation spans a conflicting commit fails validation once, then
// succeeds on re-execution.
func TestValidatorInvalidation(t *testing.T) {
	set := validatorFixture(t)
	v := NewValidator(set)
	reader, writer := set.Txns[0], set.Txns[1]

	v.Begin(reader)
	v.Begin(writer)
	if !v.CommitCheck(writer) {
		t.Fatal("writer with no prior commits failed validation")
	}
	if v.CommitCheck(reader) {
		t.Fatal("reader survived validation across a conflicting commit")
	}
	if v.Fails() != 1 {
		t.Fatalf("Fails() = %d, want 1", v.Fails())
	}
	// Re-execution: the fresh incarnation begins after the write, sees it.
	v.Begin(reader)
	if !v.CommitCheck(reader) {
		t.Fatal("re-executed reader failed validation with no new commits")
	}
	if v.Fails() != 1 {
		t.Fatalf("Fails() = %d after clean commit, want 1", v.Fails())
	}
}

// TestValidatorBeginIdempotent: Begin at re-dispatch after a preemption must
// not refresh the snapshot — the incarnation is as old as its first dispatch.
func TestValidatorBeginIdempotent(t *testing.T) {
	set := validatorFixture(t)
	v := NewValidator(set)
	reader, writer := set.Txns[0], set.Txns[1]

	v.Begin(reader)
	v.Begin(writer)
	if !v.CommitCheck(writer) {
		t.Fatal("writer failed")
	}
	v.Begin(reader) // preemption re-dispatch: a no-op while open
	if v.CommitCheck(reader) {
		t.Fatal("re-dispatch Begin refreshed the snapshot and hid the conflict")
	}
}

// TestValidatorDisjointCommits: transactions with no read/write overlap
// never invalidate each other regardless of interleaving.
func TestValidatorDisjointCommits(t *testing.T) {
	set := validatorFixture(t)
	v := NewValidator(set)
	reader, bystander := set.Txns[0], set.Txns[2]

	v.Begin(reader)
	v.Begin(bystander)
	if !v.CommitCheck(bystander) {
		t.Fatal("bystander failed")
	}
	if !v.CommitCheck(reader) {
		t.Fatal("commit to a disjoint key invalidated the reader")
	}
	if v.Fails() != 0 {
		t.Fatalf("Fails() = %d, want 0", v.Fails())
	}
}

// TestValidatorReset: a crash rewind abandons the incarnation without
// committing, but committed versions survive — the next incarnation
// snapshots the post-crash state and validates cleanly.
func TestValidatorReset(t *testing.T) {
	set := validatorFixture(t)
	v := NewValidator(set)
	reader, writer := set.Txns[0], set.Txns[1]

	v.Begin(reader)
	v.Begin(writer)
	if !v.CommitCheck(writer) {
		t.Fatal("writer failed")
	}
	v.Reset(reader) // crash loss: incarnation dies, no failure counted
	if v.Fails() != 0 {
		t.Fatalf("Reset counted a validation failure: Fails() = %d", v.Fails())
	}
	v.Begin(reader)
	if !v.CommitCheck(reader) {
		t.Fatal("post-crash incarnation saw a stale snapshot")
	}
}

// TestValidatorReadOnlyCommit: read-only commits do not advance the version
// clock, so concurrent readers never invalidate each other.
func TestValidatorReadOnlyCommit(t *testing.T) {
	txns := []*txn.Transaction{
		{ID: 0, Deadline: 10, Length: 1, Weight: 1},
		{ID: 1, Deadline: 10, Length: 1, Weight: 1},
	}
	set := keyedSet(t, txns, keySets{reads: []txn.Key{3}}, keySets{reads: []txn.Key{3}})
	v := NewValidator(set)
	v.Begin(set.Txns[0])
	v.Begin(set.Txns[1])
	if !v.CommitCheck(set.Txns[0]) || !v.CommitCheck(set.Txns[1]) {
		t.Fatal("overlapping read-only transactions invalidated each other")
	}
}
