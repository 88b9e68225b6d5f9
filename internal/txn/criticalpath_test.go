package txn

import (
	"testing"
)

func TestCriticalPathChain(t *testing.T) {
	s := mustSet(t,
		mk(0, 0, 100, 4),
		mk(1, 0, 100, 2, 0),
		mk(2, 0, 100, 3, 1),
	)
	cp, err := CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 6, 9}
	for i := range want {
		if cp[i] != want[i] {
			t.Fatalf("cp = %v, want %v", cp, want)
		}
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	// 3 depends on 1 (path 4+2=6) and 2 (path 4+5=9): cp[3] = 9+1 = 10.
	s := mustSet(t,
		mk(0, 0, 100, 4),
		mk(1, 0, 100, 2, 0),
		mk(2, 0, 100, 5, 0),
		mk(3, 0, 100, 1, 1, 2),
	)
	cp, err := CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	if cp[3] != 10 {
		t.Fatalf("cp[3] = %v, want 10", cp[3])
	}
}

func TestSlackAgainstCriticalPath(t *testing.T) {
	// T1's chain needs 6 units but its deadline allows only 5 from arrival:
	// structurally infeasible by 1.
	s := mustSet(t,
		mk(0, 0, 100, 4),
		mk(1, 0, 5, 2, 0),
	)
	slack, err := SlackAgainstCriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	if slack[1] != -1 {
		t.Fatalf("slack[1] = %v, want -1 (infeasible SLA)", slack[1])
	}
	if slack[0] != 96 {
		t.Fatalf("slack[0] = %v, want 96", slack[0])
	}
}

func TestCriticalPathLowerBoundsFinishTimes(t *testing.T) {
	// Any legal schedule must finish each transaction no earlier than
	// arrival anchor + critical path when all ancestors share the arrival.
	s := mustSet(t,
		mk(0, 2, 100, 4),
		mk(1, 2, 100, 2, 0),
		mk(2, 2, 100, 3, 1),
	)
	cp, err := CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the only possible order by hand: 0 at 2-6, 1 at 6-8, 2 at 8-11.
	finish := []float64{6, 8, 11}
	for i, f := range finish {
		if f < s.ByID(ID(i)).Arrival+cp[i]-1e-9 {
			t.Fatalf("finish %v below structural bound %v", f, s.ByID(ID(i)).Arrival+cp[i])
		}
	}
}
