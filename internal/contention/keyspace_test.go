package contention

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/txn"
)

// keyspaceFixture builds a small independent set with no key assignments.
func keyspaceFixture(t *testing.T, n int) *txn.Set {
	t.Helper()
	txns := make([]*txn.Transaction, n)
	for i := range txns {
		txns[i] = &txn.Transaction{
			ID: txn.ID(i), Arrival: float64(i), Deadline: float64(i + 10),
			Length: 2, Weight: 1,
		}
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// keySets is one transaction's read and write sets in a hand-keyed fixture.
type keySets struct{ reads, writes []txn.Key }

// keyedSet validates txns into a set and installs sets[i] as transaction
// i's key sets; transactions past the end of sets get none.
func keyedSet(t *testing.T, txns []*txn.Transaction, sets ...keySets) *txn.Set {
	t.Helper()
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	err = set.AssignKeys(0, func(id txn.ID, keys []txn.Key) ([]txn.Key, int) {
		if int(id) >= len(sets) {
			return keys, 0
		}
		ks := sets[id]
		return append(append(keys, ks.writes...), ks.reads...), len(ks.writes)
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestKeyspaceValidateRejects(t *testing.T) {
	cases := map[string]Keyspace{
		"zero value":         {},
		"no keys":            {Keys: 0, Reads: 2, Writes: 1},
		"negative alpha":     {Keys: 8, Alpha: -1, Reads: 2, Writes: 1},
		"negative reads":     {Keys: 8, Reads: -1, Writes: 1},
		"negative writes":    {Keys: 8, Reads: 2, Writes: -1},
		"empty sets":         {Keys: 8, Reads: 0, Writes: 0},
		"reads over keys":    {Keys: 4, Reads: 5, Writes: 1},
		"writes over keys":   {Keys: 4, Reads: 1, Writes: 5},
		"readonly prob low":  {Keys: 8, Reads: 2, Writes: 1, ReadOnlyProb: -0.1},
		"readonly prob high": {Keys: 8, Reads: 2, Writes: 1, ReadOnlyProb: 1.1},
	}
	for name, ks := range cases {
		if err := ks.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, ks)
		}
	}
	ok := Keyspace{Keys: 64, Alpha: 0.9, Reads: 4, Writes: 2, ReadOnlyProb: 0.3}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid keyspace rejected: %v", err)
	}
}

// TestKeyspaceValidateNonFinite: NaN fails every ordered comparison, so a
// range check alone lets it through; Validate must reject non-finite floats
// and name the field.
func TestKeyspaceValidateNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mut   func(*Keyspace)
		field string
	}{
		{"NaN alpha", func(ks *Keyspace) { ks.Alpha = math.NaN() }, "alpha"},
		{"+Inf alpha", func(ks *Keyspace) { ks.Alpha = math.Inf(1) }, "alpha"},
		{"-Inf alpha", func(ks *Keyspace) { ks.Alpha = math.Inf(-1) }, "alpha"},
		{"NaN read-only prob", func(ks *Keyspace) { ks.ReadOnlyProb = math.NaN() }, "read_only_prob"},
		{"+Inf read-only prob", func(ks *Keyspace) { ks.ReadOnlyProb = math.Inf(1) }, "read_only_prob"},
		{"-Inf read-only prob", func(ks *Keyspace) { ks.ReadOnlyProb = math.Inf(-1) }, "read_only_prob"},
	} {
		ks := Keyspace{Keys: 64, Alpha: 0.9, Reads: 4, Writes: 2}
		tc.mut(&ks)
		if err := ks.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate = %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
}

// TestAssignShape: every transaction gets the configured set sizes, sorted,
// duplicate-free, in range — the invariants txn.Set.Validate enforces.
func TestAssignShape(t *testing.T) {
	set := keyspaceFixture(t, 50)
	ks := Keyspace{Keys: 32, Alpha: 0.9, Reads: 4, Writes: 2}
	if err := Assign(set, ks, 7); err != nil {
		t.Fatal(err)
	}
	for _, tx := range set.Txns {
		reads, writes := set.Reads(tx.ID), set.Writes(tx.ID)
		if len(reads) != ks.Reads || len(writes) != ks.Writes {
			t.Fatalf("txn %d: drew %d reads, %d writes; want %d, %d",
				tx.ID, len(reads), len(writes), ks.Reads, ks.Writes)
		}
		for _, keys := range [][]txn.Key{reads, writes} {
			for i, k := range keys {
				if k < 0 || int(k) >= ks.Keys {
					t.Fatalf("txn %d: key %d outside [0, %d)", tx.ID, k, ks.Keys)
				}
				if i > 0 && keys[i-1] >= k {
					t.Fatalf("txn %d: key set %v not sorted and distinct", tx.ID, keys)
				}
			}
		}
	}
	if !set.Keyed() {
		t.Fatal("Keyed false after Assign")
	}
}

// TestAssignDeterministic: the draw is a pure function of (Keyspace, seed,
// ID) — assigning the same keyspace to a clone, or assigning twice, yields
// bit-identical sets.
func TestAssignDeterministic(t *testing.T) {
	ks := Keyspace{Keys: 64, Alpha: 0.9, Reads: 4, Writes: 2, ReadOnlyProb: 0.5}
	a := keyspaceFixture(t, 40)
	b := a.Clone()
	if err := Assign(a, ks, 11); err != nil {
		t.Fatal(err)
	}
	if err := Assign(b, ks, 11); err != nil {
		t.Fatal(err)
	}
	for i := range a.Txns {
		id := txn.ID(i)
		if !reflect.DeepEqual(a.Reads(id), b.Reads(id)) ||
			!reflect.DeepEqual(a.Writes(id), b.Writes(id)) {
			t.Fatalf("txn %d: same keyspace drew different sets:\n%v/%v\n%v/%v",
				i, a.Reads(id), a.Writes(id), b.Reads(id), b.Writes(id))
		}
	}
	// A different stream seed must move at least one set.
	c := keyspaceFixture(t, 40)
	if err := Assign(c, ks, 12); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Txns {
		if !reflect.DeepEqual(a.Reads(txn.ID(i)), c.Reads(txn.ID(i))) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("changing the seed left every read set unchanged")
	}
}

// TestAssignReadOnly: ReadOnlyProb 1 produces only read-only transactions
// (empty write sets), ReadOnlyProb 0 none.
func TestAssignReadOnly(t *testing.T) {
	set := keyspaceFixture(t, 30)
	if err := Assign(set, Keyspace{Keys: 16, Reads: 2, Writes: 2, ReadOnlyProb: 1}, 0); err != nil {
		t.Fatal(err)
	}
	for _, tx := range set.Txns {
		if w := set.Writes(tx.ID); len(w) != 0 {
			t.Fatalf("txn %d: read-only workload drew writes %v", tx.ID, w)
		}
	}
	set = keyspaceFixture(t, 30)
	if err := Assign(set, Keyspace{Keys: 16, Reads: 2, Writes: 2, ReadOnlyProb: 0}, 0); err != nil {
		t.Fatal(err)
	}
	for _, tx := range set.Txns {
		if w := set.Writes(tx.ID); len(w) != 2 {
			t.Fatalf("txn %d: write set %v, want 2 keys", tx.ID, w)
		}
	}
}

func TestAssignRejectsInvalidKeyspace(t *testing.T) {
	set := keyspaceFixture(t, 4)
	if err := Assign(set, Keyspace{}, 0); err == nil {
		t.Fatal("Assign accepted the zero keyspace")
	}
	if set.Keyed() {
		t.Fatal("failed Assign left key sets behind")
	}
}

func TestKeyedFalseOnPlainWorkload(t *testing.T) {
	if keyspaceFixture(t, 4).Keyed() {
		t.Fatal("Keyed true on a keyless set")
	}
}
