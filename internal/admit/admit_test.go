package admit

import (
	"strings"
	"testing"

	"repro/internal/txn"
)

func tx(weight float64, deadline float64) *txn.Transaction {
	return &txn.Transaction{Arrival: 0, Deadline: deadline, Length: 1, Remaining: 1, Weight: weight}
}

func TestParse(t *testing.T) {
	good := map[string]string{
		"":                  "none",
		"none":              "none",
		"queue:8":           "queue:8",
		"slack":             "slack",
		"slack:2.5":         "slack:2.5",
		"missratio":         "missratio:0.5,0.25",
		"missratio:0.4,0.1": "missratio:0.4,0.1",
	}
	for spec, name := range good {
		c, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if c.Name() != name {
			t.Errorf("Parse(%q).Name() = %q, want %q", spec, c.Name(), name)
		}
	}
	bad := map[string]string{
		"bogus":             "unknown controller",
		"none:1":            "takes no argument",
		"queue":             "needs a capacity",
		"queue:0":           "positive integer",
		"queue:abc":         "positive integer",
		"slack:-1":          "non-negative",
		"missratio:0.5":     "enter,exit",
		"missratio:0.2,.9":  "exit < enter",
		"missratio:2,0.1":   "exit < enter",
		"slack:NaN":         "finite",
		"slack:+Inf":        "finite",
		"missratio:NaN,0":   "enter threshold",
		"missratio:0.5,NaN": "exit threshold",
		"missratio:Inf,0":   "enter threshold",
	}
	for spec, want := range bad {
		_, err := Parse(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", spec, err, want)
		}
	}
}

func TestQueueCap(t *testing.T) {
	c := QueueCap{Max: 2}
	if !c.Admit(tx(1, 10), State{Queued: 1, Running: 0}) {
		t.Fatal("below cap must admit")
	}
	if c.Admit(tx(1, 10), State{Queued: 1, Running: 1}) {
		t.Fatal("at cap must shed")
	}
	if c.Degraded() {
		t.Fatal("QueueCap never degrades")
	}
}

func TestFeasibility(t *testing.T) {
	c := Feasibility{}
	// now=0, backlog=3, length=1 -> projected finish 4.
	if !c.Admit(tx(1, 4), State{Backlog: 3, Servers: 1}) {
		t.Fatal("feasible transaction shed")
	}
	if c.Admit(tx(1, 3.9), State{Backlog: 3, Servers: 1}) {
		t.Fatal("infeasible transaction admitted")
	}
	// Tolerance relaxes the gate.
	tol := Feasibility{Tolerance: 0.5}
	if !tol.Admit(tx(1, 3.9), State{Backlog: 3, Servers: 1}) {
		t.Fatal("tolerance not applied")
	}
	// More servers drain the backlog faster.
	if !c.Admit(tx(1, 2.6), State{Backlog: 3, Servers: 2}) {
		t.Fatal("multi-server backlog division wrong")
	}
}

func TestMissRatioDegradation(t *testing.T) {
	c := NewMissRatio(0.5, 0.25)
	c.Window = 8 // small window keeps the test readable

	// Warm-up: nothing flips before Window/4 completions.
	c.Complete(tx(1, 0), true)
	if c.Degraded() {
		t.Fatal("degraded during warm-up")
	}

	// Drive the miss ratio over Enter.
	for i := 0; i < 7; i++ {
		c.Complete(tx(1, 0), true)
	}
	if !c.Degraded() {
		t.Fatal("not degraded after sustained misses")
	}
	// Degraded: low-weight arrivals shed, high-weight admitted.
	if c.Admit(tx(1, 10), State{}) {
		t.Fatal("low-weight admitted while degraded")
	}
	if !c.Admit(tx(9, 10), State{}) {
		t.Fatal("high-weight shed while degraded")
	}

	// Hysteresis: ratio between Exit and Enter keeps the mode.
	for i := 0; i < 4; i++ {
		c.Complete(tx(1, 10), false)
	}
	if !c.Degraded() {
		t.Fatal("exited degradation above Exit threshold")
	}
	// Drive the ratio below Exit.
	for i := 0; i < 7; i++ {
		c.Complete(tx(1, 10), false)
	}
	if c.Degraded() {
		t.Fatal("still degraded after recovery")
	}
	if !c.Admit(tx(1, 10), State{}) {
		t.Fatal("low-weight shed while healthy")
	}
}

func TestUnconditional(t *testing.T) {
	c := Unconditional{}
	if !c.Admit(tx(1, 0), State{Queued: 1 << 20}) {
		t.Fatal("Unconditional must always admit")
	}
}
