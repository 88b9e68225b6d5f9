package fault

import (
	"math"
	"strings"
	"testing"

	"repro/internal/txn"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"abort prob above one", Plan{AbortProb: 1.5, MaxRestarts: 1}, "abort_prob"},
		{"abort prob negative", Plan{AbortProb: -0.1, MaxRestarts: 1}, "abort_prob"},
		{"negative restarts", Plan{MaxRestarts: -1}, "max_restarts"},
		{"prob without restarts", Plan{AbortProb: 0.5}, "max_restarts >= 1"},
		{"negative base", Plan{BackoffBase: -1}, "backoff_base"},
		{"negative cap", Plan{BackoffCap: -1}, "backoff_cap"},
		{"cap below base", Plan{BackoffBase: 4, BackoffCap: 2}, "below backoff_base"},
		{"negative stall start", Plan{Stalls: []Window{{Start: -1, Duration: 1}}}, "stall 0"},
		{"zero stall duration", Plan{Stalls: []Window{{Start: 1, Duration: 0}}}, "duration"},
		{"overlapping stalls", Plan{Stalls: []Window{{Start: 0, Duration: 5}, {Start: 3, Duration: 1}}}, "overlap"},
		{"negative burst", Plan{Bursts: []Burst{{At: -1, Width: 1}}}, "burst 0"},
		{"zero burst width", Plan{Bursts: []Burst{{At: 1, Width: 0}}}, "width"},
		{"NaN abort prob", Plan{AbortProb: math.NaN(), MaxRestarts: 1}, "abort_prob"},
		{"NaN base", Plan{BackoffBase: math.NaN()}, "backoff_base"},
		{"infinite cap", Plan{BackoffCap: math.Inf(1)}, "backoff_cap"},
		{"NaN stall start", Plan{Stalls: []Window{{Start: math.NaN(), Duration: 1}}}, "stall 0"},
		{"infinite stall duration", Plan{Stalls: []Window{{Start: 1, Duration: math.Inf(1)}}}, "duration"},
		{"NaN burst", Plan{Bursts: []Burst{{At: math.NaN(), Width: 1}}}, "burst 0"},
		{"infinite burst width", Plan{Bursts: []Burst{{At: 1, Width: math.Inf(1)}}}, "width"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateSortsStalls(t *testing.T) {
	p := Plan{Stalls: []Window{{Start: 10, Duration: 1}, {Start: 2, Duration: 1}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Stalls[0].Start != 2 || p.Stalls[1].Start != 10 {
		t.Fatalf("stalls not sorted: %+v", p.Stalls)
	}
}

func TestParse(t *testing.T) {
	p, err := Parse(strings.NewReader(`{
		"seed": 7, "abort_prob": 0.2, "max_restarts": 3,
		"backoff_base": 0.5, "backoff_cap": 2,
		"stalls": [{"start": 5, "duration": 1, "kind": "crash"}, {"start": 1, "duration": 1}],
		"bursts": [{"at": 3, "width": 2}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.AbortProb != 0.2 || len(p.Stalls) != 2 || len(p.Bursts) != 1 {
		t.Fatalf("unexpected plan %+v", p)
	}
	if p.Stalls[0].Kind != Stall || p.Stalls[1].Kind != Crash {
		t.Fatalf("kinds wrong after sort: %+v", p.Stalls)
	}
	if _, err := Parse(strings.NewReader(`{"sedd": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse(strings.NewReader(`{"stalls":[{"start":1,"duration":1,"kind":"melt"}]}`)); err == nil {
		t.Fatal("unknown window kind accepted")
	}
}

func TestZero(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Zero() {
		t.Fatal("nil plan should be zero")
	}
	if !(&Plan{Seed: 9}).Zero() {
		t.Fatal("seed-only plan should be zero")
	}
	if (&Plan{AbortProb: 0.1, MaxRestarts: 1}).Zero() {
		t.Fatal("aborting plan should not be zero")
	}
}

func TestBackoff(t *testing.T) {
	p := Plan{BackoffBase: 1, BackoffCap: 5}
	for k, want := range map[int]float64{0: 0, 1: 1, 2: 2, 3: 4, 4: 5, 10: 5} {
		if got := p.Backoff(k); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", k, got, want)
		}
	}
	uncapped := Plan{BackoffBase: 1}
	if got := uncapped.Backoff(6); got != 32 {
		t.Errorf("uncapped Backoff(6) = %v, want 32", got)
	}
}

func TestAbortDrawDeterministic(t *testing.T) {
	p := Plan{Seed: 42}
	for id := txn.ID(0); id < 50; id++ {
		for attempt := 0; attempt < 3; attempt++ {
			a := p.abortDraw(id, attempt)
			b := p.abortDraw(id, attempt)
			if a != b {
				t.Fatalf("draw (%d,%d) not stable: %v vs %v", id, attempt, a, b)
			}
			if a < 0 || a >= 1 {
				t.Fatalf("draw (%d,%d) = %v out of [0,1)", id, attempt, a)
			}
		}
	}
	// Different keys must draw differently (not a constant function).
	if p.abortDraw(0, 0) == p.abortDraw(1, 0) && p.abortDraw(0, 0) == p.abortDraw(2, 0) {
		t.Fatal("draws look constant across transaction IDs")
	}
}

func testSet(t *testing.T, arrivals ...float64) *txn.Set {
	t.Helper()
	txns := make([]*txn.Transaction, len(arrivals))
	for i, a := range arrivals {
		txns[i] = &txn.Transaction{ID: txn.ID(i), Arrival: a, Deadline: a + 10, Length: 1, Weight: 1}
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestApplyBursts(t *testing.T) {
	p := &Plan{Bursts: []Burst{{At: 2, Width: 3}}}
	set := testSet(t, 1, 2, 3, 4.5, 5, 6)
	moved := p.ApplyBursts(set)
	if moved != 2 {
		t.Fatalf("moved = %d, want 2", moved)
	}
	want := []float64{1, 2, 2, 2, 5, 6}
	for i, w := range want {
		if got := set.Txns[i].Arrival; got != w {
			t.Errorf("txn %d arrival = %v, want %v", i, got, w)
		}
	}
	// Idempotent: a second application moves nothing further.
	if again := p.ApplyBursts(set); again != 0 {
		t.Fatalf("second ApplyBursts moved %d", again)
	}
}

func TestInjectorAbortLifecycle(t *testing.T) {
	p := &Plan{Seed: 1, AbortProb: 1, MaxRestarts: 2, BackoffBase: 0.5, BackoffCap: 10}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	set := testSet(t, 0)
	in := NewInjector(p, set.Len())
	tr := set.Txns[0]

	if !in.AbortsAttempt(tr) {
		t.Fatal("prob=1 attempt 0 should abort")
	}
	at := in.RecordAbort(1.0, tr)
	if at != 1.5 {
		t.Fatalf("first restart at %v, want 1.5", at)
	}
	if in.Held() != 1 || in.NextRestart() != 1.5 {
		t.Fatalf("held=%d next=%v", in.Held(), in.NextRestart())
	}
	if got := in.PopDueRestarts(1.4); got != nil {
		t.Fatalf("popped early: %v", got)
	}
	got := in.PopDueRestarts(1.5)
	if len(got) != 1 || got[0] != tr {
		t.Fatalf("PopDueRestarts = %v", got)
	}
	if in.Held() != 0 || !math.IsInf(in.NextRestart(), 1) {
		t.Fatal("restart queue not drained")
	}

	// Second abort doubles the backoff.
	if !in.AbortsAttempt(tr) {
		t.Fatal("attempt 1 should abort")
	}
	if at := in.RecordAbort(3.0, tr); at != 4.0 {
		t.Fatalf("second restart at %v, want 4.0", at)
	}
	in.PopDueRestarts(4.0)

	// MaxRestarts reached: the next attempt must commit.
	if in.AbortsAttempt(tr) {
		t.Fatal("attempt after MaxRestarts should commit")
	}
	if in.Aborts() != 2 || in.Restarts() != 2 || in.attempts[tr.ID] != 2 {
		t.Fatalf("counters: aborts=%d restarts=%d attempts=%d", in.Aborts(), in.Restarts(), in.attempts[tr.ID])
	}
}

func TestInjectorRestartOrdering(t *testing.T) {
	p := &Plan{AbortProb: 1, MaxRestarts: 1}
	set := testSet(t, 0, 0, 0)
	in := NewInjector(p, set.Len())
	// Same restart instant (zero backoff): delivery must be ID-ordered
	// regardless of abort order.
	in.RecordAbort(2, set.Txns[2])
	in.RecordAbort(2, set.Txns[0])
	in.RecordAbort(2, set.Txns[1])
	got := in.PopDueRestarts(2)
	if len(got) != 3 || got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 2 {
		t.Fatalf("restart order = %v", got)
	}
}

func TestInjectorStallWindows(t *testing.T) {
	p := &Plan{Stalls: []Window{{Start: 2, Duration: 1}, {Start: 5, Duration: 2, Kind: Crash}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(p, 0)
	if _, _, ok := in.InStall(1.9); ok {
		t.Fatal("in stall before window")
	}
	if got := in.NextStallStart(0); got != 2 {
		t.Fatalf("NextStallStart(0) = %v, want 2", got)
	}
	w, idx, ok := in.InStall(2)
	if !ok || idx != 0 || w.Kind != Stall || w.End() != 3 {
		t.Fatalf("InStall(2) = %+v %d %v", w, idx, ok)
	}
	if _, _, ok := in.InStall(3); ok {
		t.Fatal("window end is exclusive")
	}
	if got := in.NextStallStart(3); got != 5 {
		t.Fatalf("NextStallStart(3) = %v, want 5", got)
	}
	w, idx, ok = in.InStall(6.5)
	if !ok || idx != 1 || w.Kind != Crash {
		t.Fatalf("InStall(6.5) = %+v %d %v", w, idx, ok)
	}
	if got := in.NextStallStart(7); !math.IsInf(got, 1) {
		t.Fatalf("NextStallStart(7) = %v, want +Inf", got)
	}
}

func TestWindowKindJSONRoundTrip(t *testing.T) {
	for _, k := range []WindowKind{Stall, Crash} {
		w := Window{Start: 1, Duration: 2, Kind: k}
		b, err := w.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Window
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if back != w {
			t.Fatalf("round trip %v -> %s -> %v", w, b, back)
		}
	}
}

// TestInjectorDrainHeld pins the instance-wide loss seam: draining the
// backoff queue returns every held transaction in (restart time, ID) order,
// empties the queue, and counts no restarts — the cluster router fails the
// drained transactions over instead of restarting them in place.
func TestInjectorDrainHeld(t *testing.T) {
	p := &Plan{AbortProb: 1, MaxRestarts: 1, BackoffBase: 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	set := testSet(t, 0, 0, 0)
	in := NewInjector(p, set.Len())
	// Restart instants: txn 1 at 3, txn 2 at 2, txn 0 at 3 — drain order
	// must be (at, id): txn 2, txn 0, txn 1.
	in.RecordAbort(2, set.Txns[1])
	in.RecordAbort(1, set.Txns[2])
	in.RecordAbort(2, set.Txns[0])
	got := in.DrainHeld()
	if len(got) != 3 || got[0].ID != 2 || got[1].ID != 0 || got[2].ID != 1 {
		t.Fatalf("DrainHeld order = %v, want txns 2, 0, 1", got)
	}
	if in.Held() != 0 || !math.IsInf(in.NextRestart(), 1) {
		t.Fatalf("queue not emptied: held=%d next=%v", in.Held(), in.NextRestart())
	}
	if in.Restarts() != 0 {
		t.Fatalf("drain counted %d restarts, want 0 (failover, not restart)", in.Restarts())
	}
	if in.PopDueRestarts(100) != nil {
		t.Fatal("drained transactions must not restart later")
	}
	if in.DrainHeld() != nil {
		t.Fatal("second drain should return nil")
	}
}
