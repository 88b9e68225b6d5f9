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
	ks := Keyspace{Keys: 32, Alpha: 0.9, Reads: 4, Writes: 2, Seed: 7}
	if err := Assign(set, ks); err != nil {
		t.Fatal(err)
	}
	for _, tx := range set.Txns {
		if len(tx.Reads) != ks.Reads || len(tx.Writes) != ks.Writes {
			t.Fatalf("txn %d: drew %d reads, %d writes; want %d, %d",
				tx.ID, len(tx.Reads), len(tx.Writes), ks.Reads, ks.Writes)
		}
		for _, keys := range [][]txn.Key{tx.Reads, tx.Writes} {
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
	if !HasKeys(set) {
		t.Fatal("HasKeys false after Assign")
	}
}

// TestAssignDeterministic: the draw is a pure function of (Keyspace, ID) —
// assigning the same keyspace to a clone, or assigning twice, yields
// bit-identical sets.
func TestAssignDeterministic(t *testing.T) {
	ks := Keyspace{Keys: 64, Alpha: 0.9, Reads: 4, Writes: 2, ReadOnlyProb: 0.5, Seed: 11}
	a := keyspaceFixture(t, 40)
	b := a.Clone()
	if err := Assign(a, ks); err != nil {
		t.Fatal(err)
	}
	if err := Assign(b, ks); err != nil {
		t.Fatal(err)
	}
	for i := range a.Txns {
		if !reflect.DeepEqual(a.Txns[i].Reads, b.Txns[i].Reads) ||
			!reflect.DeepEqual(a.Txns[i].Writes, b.Txns[i].Writes) {
			t.Fatalf("txn %d: same keyspace drew different sets:\n%v/%v\n%v/%v",
				i, a.Txns[i].Reads, a.Txns[i].Writes, b.Txns[i].Reads, b.Txns[i].Writes)
		}
	}
	// A different stream seed must move at least one set.
	c := keyspaceFixture(t, 40)
	ks.Seed = 12
	if err := Assign(c, ks); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Txns {
		if !reflect.DeepEqual(a.Txns[i].Reads, c.Txns[i].Reads) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("changing Keyspace.Seed left every read set unchanged")
	}
}

// TestAssignReadOnly: ReadOnlyProb 1 produces only read-only transactions
// (nil write sets), ReadOnlyProb 0 none.
func TestAssignReadOnly(t *testing.T) {
	set := keyspaceFixture(t, 30)
	if err := Assign(set, Keyspace{Keys: 16, Reads: 2, Writes: 2, ReadOnlyProb: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tx := range set.Txns {
		if tx.Writes != nil {
			t.Fatalf("txn %d: read-only workload drew writes %v", tx.ID, tx.Writes)
		}
	}
	set = keyspaceFixture(t, 30)
	if err := Assign(set, Keyspace{Keys: 16, Reads: 2, Writes: 2, ReadOnlyProb: 0}); err != nil {
		t.Fatal(err)
	}
	for _, tx := range set.Txns {
		if len(tx.Writes) != 2 {
			t.Fatalf("txn %d: write set %v, want 2 keys", tx.ID, tx.Writes)
		}
	}
}

func TestAssignRejectsInvalidKeyspace(t *testing.T) {
	set := keyspaceFixture(t, 4)
	if err := Assign(set, Keyspace{}); err == nil {
		t.Fatal("Assign accepted the zero keyspace")
	}
	if HasKeys(set) {
		t.Fatal("failed Assign left key sets behind")
	}
}

func TestHasKeysFalseOnPlainWorkload(t *testing.T) {
	if HasKeys(keyspaceFixture(t, 4)) {
		t.Fatal("HasKeys true on a keyless set")
	}
}
