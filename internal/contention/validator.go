package contention

import (
	"repro/internal/txn"
)

// Validator is the commit-time validation engine: a single-version variant
// of the Block-STM read/validate/re-execute loop. Every dispatch opens an
// incarnation stamped with the current commit sequence number; at
// completion, CommitCheck re-reads the version of every key in the
// transaction's read set and fails the incarnation if any was written by a
// commit after the incarnation began. A failed incarnation is the
// contention-driven replacement for the fault injector's random abort draw:
// the run loop rewinds the transaction to its full length and re-queues it,
// and the next dispatch opens a fresh incarnation.
//
// Commit order is the run loop's completion order, which is deterministic,
// so the whole validate/re-execute schedule is a pure function of the seed.
// Termination is structural: an incarnation fails only if some *other*
// transaction committed during its window, and every transaction commits
// exactly once, so a workload of n transactions sees at most n-1 failures
// per transaction (quadratic worst case, reached only under total overlap).
type Validator struct {
	// set holds the key sets of the transactions being validated.
	set *txn.Set
	// lastWrite[k] is the commit sequence number of the last committed
	// write to key k (0 = never written).
	lastWrite []uint64
	// begin[id] is the commit sequence number observed when transaction
	// id's current incarnation was dispatched; valid while open[id].
	begin []uint64
	open  []bool
	// seq counts commits that wrote at least one key.
	seq   uint64
	fails int
}

// NewValidator builds a validator sized for set. It returns nil when no
// transaction carries key sets — the caller's nil check is the "contention
// model off" switch, keeping plain workloads on the exact pre-contention
// code path.
//
//lint:coldpath validator construction is per-run setup
func NewValidator(set *txn.Set) *Validator {
	if !set.Keyed() {
		return nil
	}
	return &Validator{
		set:       set,
		lastWrite: make([]uint64, keySpan(set)),
		begin:     make([]uint64, set.Len()),
		open:      make([]bool, set.Len()),
	}
}

// Begin opens an incarnation of t at the current commit sequence. It is
// idempotent while the incarnation stays open, so the run loops call it at
// every dispatch: re-dispatch after a preemption continues the same
// incarnation (the snapshot is as old as the first dispatch), while the
// first dispatch after a validation failure or crash rewind opens a fresh
// one.
func (v *Validator) Begin(t *txn.Transaction) {
	if !v.open[t.ID] {
		v.open[t.ID] = true
		v.begin[t.ID] = v.seq
	}
}

// CommitCheck validates t's open incarnation at completion time. On
// success it commits: the incarnation closes and t's writes are stamped
// with a fresh commit sequence number. On failure — some key in t's read
// set was written by a commit after the incarnation began — it closes the
// incarnation, counts the failure, and returns false; the caller must
// rewind t and re-queue it for a fresh incarnation.
func (v *Validator) CommitCheck(t *txn.Transaction) bool {
	for _, k := range v.set.Reads(t.ID) {
		if v.lastWrite[k] > v.begin[t.ID] {
			v.open[t.ID] = false
			v.fails++
			return false
		}
	}
	v.open[t.ID] = false
	if writes := v.set.Writes(t.ID); len(writes) > 0 {
		v.seq++
		for _, k := range writes {
			v.lastWrite[k] = v.seq
		}
	}
	return true
}

// Reset abandons t's open incarnation without committing, for rewinds that
// bypass the commit path: crash losses and cluster failovers. The next
// dispatch opens a fresh incarnation. Committed versions survive — in the
// cluster model the version table is the durable database, the incarnation
// the in-flight attempt.
func (v *Validator) Reset(t *txn.Transaction) {
	v.open[t.ID] = false
}

// Fails returns the number of validation failures so far.
func (v *Validator) Fails() int { return v.fails }
