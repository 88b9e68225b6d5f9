package workload

import (
	"bytes"
	"testing"

	"repro/internal/contention"
	"repro/internal/txn"
)

// scanFacts derives Independent and Keyed by walking every transaction.
func scanFacts(s *txn.Set) (independent, keyed bool) {
	independent = true
	for _, t := range s.Txns {
		independent = independent && len(t.Deps) == 0
		keyed = keyed || len(s.Reads(t.ID)) > 0 || len(s.Writes(t.ID)) > 0
	}
	return independent, keyed
}

// TestSetFactsMatchScan: on every generator path the facts a set recorded
// at validation equal a scan of its transactions, and so do a clone's and
// a JSON round trip's.
func TestSetFactsMatchScan(t *testing.T) {
	keys := contention.Keyspace{Keys: 64, Alpha: 0.9, Reads: 3, Writes: 1, ReadOnlyProb: 0.3}
	sessions, _, err := GenerateSessions(DefaultSessions(8, 0.8, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name              string
		set               *txn.Set
		independent, keys bool
	}{
		{"table I", MustGenerate(Default(0.95, 1).WithN(300)), true, false},
		{"weights", MustGenerate(Default(0.9, 2).WithN(300).WithWeights()), true, false},
		{"workflows", MustGenerate(Default(0.8, 3).WithN(300).WithWeights().WithWorkflows(5, 1)), false, false},
		{"shared workflows", MustGenerate(Default(0.8, 4).WithN(300).WithWorkflows(4, 3)), false, false},
		{"sessions", sessions, false, false},
		{"contention", MustGenerate(Default(0.85*4, 5).WithN(300).WithContention(keys)), true, true},
		{"contended workflows", MustGenerate(Default(0.8, 6).WithN(300).WithWorkflows(4, 1).WithContention(keys)), false, true},
	} {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, c.set, nil); err != nil {
			t.Fatal(err)
		}
		read, _, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			how string
			set *txn.Set
		}{{"built", c.set}, {"clone", c.set.Clone()}, {"JSON round trip", read}} {
			indep, keyed := scanFacts(v.set)
			if v.set.Independent() != indep || v.set.Keyed() != keyed {
				t.Errorf("%s, %s: Independent %v, Keyed %v; a scan says %v, %v",
					c.name, v.how, v.set.Independent(), v.set.Keyed(), indep, keyed)
			}
		}
		// The fixtures cover both values of each fact.
		if indep, keyed := scanFacts(c.set); indep != c.independent || keyed != c.keys {
			t.Errorf("%s: the fixture scans as independent %v, keyed %v", c.name, indep, keyed)
		}
	}
}
