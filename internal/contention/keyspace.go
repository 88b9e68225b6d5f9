// Package contention adds a data-contention model to the paper's otherwise
// conflict-free transactions (ROADMAP item 3, docs/CONTENTION.md):
// transactions carry read/write sets drawn over an abstract keyspace with
// Zipf-skewed hot keys, a validation engine detects read-set invalidation at
// commit time and forces deterministic re-execution with a new incarnation
// (the Block-STM read/validate/re-execute loop), and a conflict-deferring
// scheduler combinator steals non-conflicting work past a
// predicted-conflicting queue head so validation failures are avoided
// rather than merely retried.
//
// Everything is seed-deterministic: key sets are a pure function of
// (Keyspace, seed, transaction ID), the validator's version counters advance
// only on commits, and the deferrer probes its wrapped policy in a fixed
// order — so identical seeds produce byte-identical validate/abort schedules
// on any worker count (docs/PARALLELISM.md).
package contention

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/txn"
)

// Keyspace describes the abstract database a contended workload draws its
// read/write sets from. The zero value means "no contention model": Assign
// on a zero Keyspace is rejected by Validate, and transactions without key
// sets never validate-fail.
type Keyspace struct {
	// Keys is the number of rows in the keyspace. Smaller keyspaces are
	// hotter: with Zipf skew the collision probability between two
	// transactions rises steeply as Keys shrinks (the contention knee in
	// BENCH_contention.json sweeps Keys downward).
	Keys int
	// Alpha is the Zipf skew of key popularity: 0 is uniform, larger
	// concentrates accesses on a few hot rows. Typical OLTP-like skew is
	// 0.8–1.1.
	Alpha float64
	// Reads is the read-set size drawn for every transaction (distinct
	// keys; reads may additionally overlap the transaction's own writes).
	Reads int
	// Writes is the write-set size drawn for read-write transactions.
	Writes int
	// ReadOnlyProb is the probability a transaction is read-only (empty
	// write set). Read-only transactions can validate-fail but never
	// invalidate others.
	ReadOnlyProb float64
}

// Validate checks the keyspace parameters.
func (ks *Keyspace) Validate() error {
	if ks.Keys <= 0 {
		return fmt.Errorf("contention: keyspace needs a positive key count, got %d", ks.Keys)
	}
	if !txn.Finite(ks.Alpha) || ks.Alpha < 0 {
		return fmt.Errorf("contention: zipf alpha %v must be finite and non-negative", ks.Alpha)
	}
	if ks.Reads < 0 || ks.Writes < 0 {
		return fmt.Errorf("contention: negative set size (reads %d, writes %d)", ks.Reads, ks.Writes)
	}
	if ks.Reads == 0 && ks.Writes == 0 {
		return fmt.Errorf("contention: keyspace with empty read and write sets models no contention")
	}
	if ks.Reads > ks.Keys || ks.Writes > ks.Keys {
		return fmt.Errorf("contention: set sizes (reads %d, writes %d) exceed keyspace size %d", ks.Reads, ks.Writes, ks.Keys)
	}
	if !txn.Finite(ks.ReadOnlyProb) || ks.ReadOnlyProb < 0 || ks.ReadOnlyProb > 1 {
		return fmt.Errorf("contention: read_only_prob %v must be finite and in [0, 1]", ks.ReadOnlyProb)
	}
	return nil
}

// Assign draws a read set and a write set for every transaction in set.
// The draw is a pure function of (Keyspace, seed, transaction ID): each
// transaction samples from its own rng.Derive(seed, ID) stream, so
// regenerating a workload, cloning it, or assigning the same keyspace on
// another instance yields bit-identical key sets regardless of assignment
// order. Sets are sorted and duplicate-free (txn.Set.AssignKeys'
// invariant); reads may overlap the transaction's own writes. Only the
// drawn sets are checked: the rest of a validated set is unchanged.
//
//lint:coldpath key assignment is workload construction, before any event loop
func Assign(set *txn.Set, ks Keyspace, seed uint64) error {
	if err := ks.Validate(); err != nil {
		return err
	}
	zipf, err := rng.NewZipf(0, ks.Keys-1, ks.Alpha)
	if err != nil {
		return err
	}
	// Every set is drawn in one pass into one slab sized for the largest
	// possible draw.
	var src rng.Source
	return set.AssignKeys(set.Len()*(ks.Writes+ks.Reads), func(id txn.ID, slab []txn.Key) ([]txn.Key, int) {
		src.Seed(rng.Derive(seed, uint64(id)))
		nw := ks.Writes
		if src.Float64() < ks.ReadOnlyProb {
			nw = 0
		}
		slab = drawDistinct(slab, &src, zipf, nw)
		return drawDistinct(slab, &src, zipf, ks.Reads), nw
	})
}

// drawDistinct samples n distinct keys by rejection and appends them to
// slab, sorted. Rejection terminates because Validate caps n at the
// keyspace size; with the recommended n << Keys the expected number of
// redraws is tiny.
func drawDistinct(slab []txn.Key, src *rng.Source, zipf *rng.Zipf, n int) []txn.Key {
	start := len(slab)
	for len(slab)-start < n {
		k := txn.Key(zipf.Sample(src))
		dup := false
		for _, have := range slab[start:] {
			if have == k {
				dup = true
				break
			}
		}
		if !dup {
			slab = append(slab, k)
		}
	}
	// Insertion sort: n is a handful of keys.
	keys := slab[start:]
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return slab
}

// keySpan returns one past the largest key any transaction in set reads or
// writes — the length of a table indexed by key — or 0 when no transaction
// carries keys.
func keySpan(set *txn.Set) int {
	span := 0
	for i := range set.Len() {
		id := txn.ID(i)
		for _, k := range set.Reads(id) {
			span = max(span, int(k)+1)
		}
		for _, k := range set.Writes(id) {
			span = max(span, int(k)+1)
		}
	}
	return span
}
