package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

func TestParsePolicy(t *testing.T) {
	for spec, want := range map[string]string{
		"": "rr", "rr": "rr", "Round-Robin": "rr", "roundrobin": "rr",
		"least": "least", "least-loaded": "least",
		"slack": "slack", "slack-aware": "slack",
		"weighted": "weighted", "health": "weighted", "health-weighted": "weighted",
	} {
		p, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spec, err)
		}
		if p.Name() != want {
			t.Fatalf("ParsePolicy(%q).Name() = %q, want %q", spec, p.Name(), want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("ParsePolicy(bogus) error = %v, want the spec named", err)
	}
}

func TestPolicyPicks(t *testing.T) {
	views := []InstanceView{
		{Index: 0, Queued: 3, Running: 1, Backlog: 9},
		{Index: 1, Ejected: true, Queued: 0, Backlog: 0},
		{Index: 2, Queued: 1, Running: 1, Backlog: 12},
		{Index: 3, HalfOpen: true, Queued: 0, Running: 0, Backlog: 0.5},
	}
	// Round-robin cycles 0, 2, 3, 0 — the cursor skips the ejected instance.
	rr := NewRoundRobin()
	for i, want := range []int{0, 2, 3, 0} {
		if got := rr.Pick(views); got != want {
			t.Fatalf("round-robin pick %d = %d, want %d", i, got, want)
		}
	}
	// Least-loaded counts population: instance 3 (0) beats 2 (2) and 0 (4).
	if got := (LeastLoaded{}).Pick(views); got != 3 {
		t.Fatalf("least-loaded pick = %d, want 3", got)
	}
	// Slack-aware minimizes backlog: instance 3 again (0.5 vs 9 vs 12).
	if got := (SlackAware{}).Pick(views); got != 3 {
		t.Fatalf("slack-aware pick = %d, want 3", got)
	}
	// Health-weighted doubles the half-open instance's score (2*0.5+1 = 2)
	// but it still wins against backlog-heavy healthy peers (13 and 14).
	if got := (HealthWeighted{}).Pick(views); got != 3 {
		t.Fatalf("health-weighted pick = %d, want 3", got)
	}
	// All ejected: every policy reports -1.
	down := []InstanceView{{Index: 0, Ejected: true}, {Index: 1, Ejected: true}}
	for _, p := range []Policy{NewRoundRobin(), LeastLoaded{}, SlackAware{}, HealthWeighted{}} {
		if got := p.Pick(down); got != -1 {
			t.Fatalf("%s pick with all ejected = %d, want -1", p.Name(), got)
		}
	}
}

// twoInstanceCrashSet is the hand-built failover scenario: two equal
// transactions routed round-robin onto two instances, and instance 0's crash
// window [4, 6) destroying its whole fault domain mid-run.
func twoInstanceCrashSet(t *testing.T) *txn.Set {
	t.Helper()
	set, err := txn.NewSet([]*txn.Transaction{
		{ID: 0, Arrival: 0, Deadline: 30, Length: 10, Weight: 1},
		{ID: 1, Arrival: 0, Deadline: 30, Length: 10, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func crashPlans() []*fault.Plan {
	return []*fault.Plan{
		{Stalls: []fault.Window{{Start: 4, Duration: 2, Kind: fault.Crash}}},
		nil,
	}
}

// TestFailoverReroutesCrashLostWork walks the full failover arithmetic by
// hand: T0 is routed to instance 0, loses 4 units of progress to the crash
// at t=4, waits out one backoff unit, fails over to instance 1 at t=5 and
// reruns from scratch behind T1 — finishing at 20, inside its deadline. The
// breaker ejects instance 0 at t=4 and half-opens it at the window end.
func TestFailoverReroutesCrashLostWork(t *testing.T) {
	set := twoInstanceCrashSet(t)
	col := &obs.Collector{}
	res, err := New(Config{
		Instances:    2,
		NewScheduler: sched.NewSRPT,
		Faults:       crashPlans(),
		Retry:        Retry{Budget: 1, BackoffBase: 1},
		Sink:         col,
	}).Run(set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Routes != 2 || res.Failovers != 1 || res.Lost != 0 {
		t.Fatalf("routes=%d failovers=%d lost=%d, want 2/1/0", res.Routes, res.Failovers, res.Lost)
	}
	if res.Ejections != 1 || res.Recoveries != 1 {
		t.Fatalf("ejections=%d recoveries=%d, want 1/1", res.Ejections, res.Recoveries)
	}
	if f := set.Txns[1].FinishTime; f != 10 {
		t.Fatalf("T1 finish %v, want 10 (its instance never crashed)", f)
	}
	if f := set.Txns[0].FinishTime; f != 20 {
		t.Fatalf("T0 finish %v, want 20 (crash at 4, backoff 1, full rerun behind T1)", f)
	}
	if res.Summary.N != 2 || res.Summary.BusyTime != 24 {
		t.Fatalf("N=%d busy=%v, want 2 and 24 (20 of work + 4 lost to the crash)", res.Summary.N, res.Summary.BusyTime)
	}
	if res.Summary.Aborts != 1 || res.Summary.Restarts != 0 || res.Summary.Stalls != 1 {
		t.Fatalf("aborts=%d restarts=%d stalls=%d, want 1/0/1", res.Summary.Aborts, res.Summary.Restarts, res.Summary.Stalls)
	}
	if res.Misses != 0 || res.EffectiveMissRatio() != 0 {
		t.Fatalf("misses=%d effective=%v, want none", res.Misses, res.EffectiveMissRatio())
	}
	want := []InstanceResult{
		{Routed: 1, CrashLost: 1, Busy: 4},
		{Routed: 1, FailoversIn: 1, Completed: 2, Busy: 20},
	}
	if !reflect.DeepEqual(res.Instances, want) {
		t.Fatalf("instances = %+v, want %+v", res.Instances, want)
	}
	// The decision stream tells the same story, in order, for T0.
	var kinds []string
	for _, ev := range col.Events() {
		if ev.Txn == 0 || ev.Kind == obs.KindEject || ev.Kind == obs.KindRecover {
			kinds = append(kinds, ev.Kind.String()+":"+ev.Detail)
		}
	}
	wantKinds := []string{
		"route:0", "arrival:", "dispatch:0",
		"abort:crash", "eject:0",
		"failover:1<-0", "recover:0",
		"dispatch:1", "completion:",
	}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Fatalf("T0 event trail = %v, want %v", kinds, wantKinds)
	}
	if err := obs.Validate(col.Events()); err != nil {
		t.Fatalf("routed stream violates invariants: %v", err)
	}
}

// TestHealthyInstancesGauge: asets_cluster_healthy_instances reads the
// whole fleet from the start of the run, drops when the breaker ejects the
// crashed instance at t=4 and returns when it half-opens at t=6. The pacing
// hook reads the gauge before each advance of the clock.
func TestHealthyInstancesGauge(t *testing.T) {
	reg := obs.NewRegistry()
	healthy := func() float64 {
		for _, g := range reg.Snapshot().Gauges {
			if g.Name == "asets_cluster_healthy_instances" {
				return g.Value
			}
		}
		t.Fatal("asets_cluster_healthy_instances is not registered")
		return 0
	}
	var seen []float64
	_, err := New(Config{
		Instances:    2,
		NewScheduler: sched.NewSRPT,
		Faults:       crashPlans(),
		Retry:        Retry{Budget: 1, BackoffBase: 1},
		Metrics:      reg,
		Pace: func(next float64) error {
			if v := healthy(); len(seen) == 0 || seen[len(seen)-1] != v {
				seen = append(seen, v)
			}
			return nil
		},
	}).Run(twoInstanceCrashSet(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{2, 1, 2}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("healthy instances over the run = %v, want %v", seen, want)
	}
	if v := healthy(); v != 2 {
		t.Fatalf("healthy instances at the end = %v, want 2", v)
	}
}

// TestNoFailoverLosesWork pins the strawman the benchmark gate measures
// against: with failover disabled, instance 0's crash permanently destroys
// T0, and the effective miss ratio charges the loss as an SLA violation.
func TestNoFailoverLosesWork(t *testing.T) {
	set := twoInstanceCrashSet(t)
	col := &obs.Collector{}
	res, err := New(Config{
		Instances:    2,
		NewScheduler: sched.NewSRPT,
		Faults:       crashPlans(),
		NoFailover:   true,
		Sink:         col,
	}).Run(set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 1 || res.Failovers != 0 {
		t.Fatalf("lost=%d failovers=%d, want 1/0", res.Lost, res.Failovers)
	}
	if !set.Txns[0].Shed || set.Txns[0].Finished {
		t.Fatalf("lost T0 should be marked shed and unfinished: %+v", set.Txns[0])
	}
	if res.Summary.N != 1 || res.Summary.BusyTime != 14 {
		t.Fatalf("N=%d busy=%v, want 1 and 14", res.Summary.N, res.Summary.BusyTime)
	}
	if got := res.EffectiveMissRatio(); got != 0.5 {
		t.Fatalf("effective miss ratio %v, want 0.5 (one lost of two served)", got)
	}
	var lostEv []obs.Event
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindFailover {
			lostEv = append(lostEv, ev)
		}
	}
	if len(lostEv) != 1 || lostEv[0].Detail != "lost" || lostEv[0].Txn != 0 {
		t.Fatalf("failover events = %+v, want one terminal loss of T0", lostEv)
	}
	if err := obs.Validate(col.Events()); err != nil {
		t.Fatalf("routed stream violates invariants: %v", err)
	}
}

// TestRetryBudgetExhaustion: a zero budget (set explicitly, alongside a
// non-zero backoff so the struct is not the zero value that selects
// DefaultRetry) loses crash victims exactly like NoFailover, but through the
// budget accounting.
func TestRetryBudgetExhaustion(t *testing.T) {
	set := twoInstanceCrashSet(t)
	res, err := New(Config{
		Instances:    2,
		NewScheduler: sched.NewSRPT,
		Faults:       crashPlans(),
		Retry:        Retry{Budget: 0, BackoffBase: 1},
	}).Run(set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 1 || res.Failovers != 0 {
		t.Fatalf("lost=%d failovers=%d, want 1/0 with an exhausted budget", res.Lost, res.Failovers)
	}
}

// clusterConfig is the shared fixture of the determinism and fleet tests:
// four instances under health-weighted routing, with a crash domain, a stall
// domain and a flaky-abort domain.
func clusterConfig(sink obs.Sink) Config {
	return Config{
		Instances:    4,
		Policy:       HealthWeighted{},
		NewScheduler: sched.NewSRPT,
		Faults: []*fault.Plan{
			{Seed: 7, AbortProb: 0.25, MaxRestarts: 2, BackoffBase: 0.5, BackoffCap: 4},
			{Stalls: []fault.Window{{Start: 40, Duration: 8, Kind: fault.Crash}}},
			{Stalls: []fault.Window{{Start: 60, Duration: 5, Kind: fault.Stall}}},
			nil,
		},
		Retry:            Retry{Budget: 2, BackoffBase: 0.5, BackoffCap: 2},
		RecoveryCooldown: 2,
		Sink:             sink,
	}
}

// clusterWorkload targets utilization 0.8 per instance: workload utilization
// is defined against one server, so a four-instance fleet takes 4x.
func clusterWorkload() *txn.Set {
	cfg := workload.Default(3.2, 0xC1A57E12)
	cfg.N = 400
	return workload.MustGenerate(cfg)
}

func streamBytes(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Goldens pinned across commits: the sha256 of a fixture's routed JSONL
// stream and of its JSON-encoded Result. Two runs of one commit agreeing
// says nothing about whether a refactor of the routing loop moved a
// schedule; these do. Regenerate only for an intended schedule change, and
// say which in the commit.
const (
	goldenClusterStream = "685fda212720b15fe07c5460d59b86b30f21c4771c82c229ed3018a414a7e3b4"
	goldenClusterResult = "5d8504edd208ba424e04711a3a160138ae51404a453d6f7641efbcf21ef25da2"
	goldenSLOStream     = "27bfe6df4c3baa8bb1431434f63b12753becca3e3c0dcc867db476f53b286c46"
	goldenSLOResult     = "1b026fb062a6ed2959f981320f217ecac9c8772756df6a33b703ebcdee02bc62"
)

// Fold digests of the same fixtures (obstest.RoutedFolds): the per-instant
// sorted event lines and the per-transaction subsequences, with the
// restart/validate_fail preempts and degrade events dropped. They hold
// across engine designs that differ only in those events and in the order
// of events within one instant; regenerate them only for an intended
// schedule change.
const (
	foldClusterInstants = "438841d26f826d4cf27a754e44a83c275bd7ce5aa05ac9f6cedc13a8752c4edf"
	foldClusterTxns     = "a5bd1e55dd921fd3e193e65132e7defaef00ce3cd4920523e19b6e823aa32858"
	foldSLOInstants     = "9b6318dff14d4ed8478852a60a8ba41d13e3cabe542ada8a15568cd5cc2bab96"
	foldSLOTxns         = "88573952bc6128870ee2f159486b2edb9e6b40aa14d38bafc9b00fe822a33c6e"
)

// checkFolds compares a stream's fold digests against pinned values.
func checkFolds(t *testing.T, events []obs.Event, instants, txns string) {
	t.Helper()
	gotInstants, gotTxns := obstest.RoutedFolds(events)
	if gotInstants != instants {
		t.Errorf("per-instant fold %s, pinned %s", gotInstants, instants)
	}
	if gotTxns != txns {
		t.Errorf("per-transaction fold %s, pinned %s", gotTxns, txns)
	}
}

// checkGolden compares the sha256 of b against a pinned hex digest.
func checkGolden(t *testing.T, what string, b []byte, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("%s digest %s, pinned %s", what, got, want)
	}
}

// resultBytes is the JSON encoding of a cluster result, Summary included.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterDeterminism replays the same seeds twice and requires
// byte-identical routed decision streams — routing, ejection, failover and
// per-instance scheduling included — plus a well-formed stream and conserved
// transaction accounting.
func TestClusterDeterminism(t *testing.T) {
	run := func() ([]obs.Event, *Result) {
		col := &obs.Collector{}
		res, err := New(clusterConfig(col)).Run(clusterWorkload())
		if err != nil {
			t.Fatal(err)
		}
		return col.Events(), res
	}
	ev1, res1 := run()
	ev2, res2 := run()
	if !bytes.Equal(streamBytes(t, ev1), streamBytes(t, ev2)) {
		t.Fatal("same seeds, different routed decision streams")
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("same seeds, different results:\n%+v\n%+v", res1, res2)
	}
	checkGolden(t, "routed stream", streamBytes(t, ev1), goldenClusterStream)
	checkGolden(t, "result", resultBytes(t, res1), goldenClusterResult)
	checkFolds(t, ev1, foldClusterInstants, foldClusterTxns)
	if err := obs.Validate(ev1); err != nil {
		t.Fatalf("routed stream violates invariants: %v", err)
	}
	if res1.Summary.N+res1.Lost+res1.Shed != 400 {
		t.Fatalf("accounting leak: completed %d + lost %d + shed %d != 400",
			res1.Summary.N, res1.Lost, res1.Shed)
	}
	if res1.Ejections == 0 || res1.Failovers == 0 {
		t.Fatalf("fixture exercised no failover (ejections=%d failovers=%d); tighten the plan",
			res1.Ejections, res1.Failovers)
	}
	routed := 0
	for _, ir := range res1.Instances {
		routed += ir.Routed
	}
	if routed != res1.Routes || routed != 400-res1.Shed {
		t.Fatalf("route accounting: per-instance %d, total %d, expected %d", routed, res1.Routes, 400-res1.Shed)
	}
}

// TestSingleInstanceMatchesSim pins the degenerate fleet: one instance with
// no faults must reproduce the single-backend simulator's summary exactly on
// the same workload and policy.
func TestSingleInstanceMatchesSim(t *testing.T) {
	cfg := workload.Default(0.9, 0x51D)
	cfg.N = 300

	direct, err := sim.New(sim.Config{}).Run(workload.MustGenerate(cfg), sched.NewSRPT())
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(Config{Instances: 1, NewScheduler: sched.NewSRPT}).Run(workload.MustGenerate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Summary, direct) {
		t.Fatalf("one-instance cluster diverged from the simulator:\ncluster: %+v\nsim:     %+v", res.Summary, direct)
	}
}

// TestFleetPacedMatchesInstant pins the live tier's pacing seam: a FakeClock
// paced fleet replay emits the identical routed stream and result as the
// unpaced engine, and the status board converges to done.
func TestFleetPacedMatchesInstant(t *testing.T) {
	colInstant := &obs.Collector{}
	resInstant, err := New(clusterConfig(colInstant)).Run(clusterWorkload())
	if err != nil {
		t.Fatal(err)
	}

	colPaced := &obs.Collector{}
	fleet := NewFleet(clusterConfig(colPaced), clusterWorkload(), FleetOptions{
		TimeScale: time.Millisecond,
		Clock:     executor.NewFakeClock(time.Unix(0, 0)),
	})
	resPaced, err := fleet.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamBytes(t, colInstant.Events()), streamBytes(t, colPaced.Events())) {
		t.Fatal("paced fleet replay diverged from the instant run")
	}
	if !reflect.DeepEqual(resInstant, resPaced) {
		t.Fatalf("paced result diverged:\ninstant: %+v\npaced:   %+v", resInstant, resPaced)
	}
	st := fleet.Status()
	if !st.Done || st.Completed != resPaced.Summary.N || len(st.Instances) != 4 ||
		st.Routes != resPaced.Routes || st.Failovers != resPaced.Failovers || st.Lost != resPaced.Lost ||
		st.Ejections != resPaced.Ejections || st.Recoveries != resPaced.Recoveries {
		t.Fatalf("final status %+v inconsistent with result %+v", st, resPaced)
	}
	if st.Healthy() != 4 {
		t.Fatalf("all instances should be routable at the end, got %d healthy", st.Healthy())
	}
}

// TestFleetCancellation: cancelling the context mid-replay aborts Run with
// the context error.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fleet := NewFleet(clusterConfig(nil), clusterWorkload(), FleetOptions{
		TimeScale: time.Millisecond,
		Clock:     executor.NewFakeClock(time.Unix(0, 0)),
	})
	if _, err := fleet.Run(ctx); err != context.Canceled {
		t.Fatalf("cancelled fleet run returned %v, want context.Canceled", err)
	}
}

func TestClusterRejectsDependencies(t *testing.T) {
	set, err := txn.NewSet([]*txn.Transaction{
		{ID: 0, Arrival: 0, Deadline: 10, Length: 1, Weight: 1},
		{ID: 1, Arrival: 0, Deadline: 10, Length: 1, Weight: 1, Deps: []txn.ID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Instances: 2, NewScheduler: sched.NewFCFS}).Run(set)
	if err == nil || !strings.Contains(err.Error(), "independent transactions only") {
		t.Fatalf("dependent workload error = %v, want the routing constraint named", err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Instances: 2, NewScheduler: sched.NewFCFS}
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero instances", func(c *Config) { c.Instances = 0 }, "instances"},
		{"no scheduler", func(c *Config) { c.NewScheduler = nil }, "scheduler factory"},
		{"plan count", func(c *Config) { c.Faults = []*fault.Plan{nil} }, "fault plans"},
		{"invalid plan", func(c *Config) {
			c.Faults = []*fault.Plan{{AbortProb: 2}, nil}
		}, "abort_prob"},
		{"bursts rejected", func(c *Config) {
			c.Faults = []*fault.Plan{{Bursts: []fault.Burst{{At: 1, Width: 1}}}, nil}
		}, "bursts"},
		{"negative budget", func(c *Config) { c.Retry = Retry{Budget: -1, BackoffBase: 1} }, "retry budget"},
		{"negative backoff", func(c *Config) { c.Retry = Retry{Budget: 1, BackoffBase: -1} }, "backoff_base"},
		{"cap below base", func(c *Config) { c.Retry = Retry{Budget: 1, BackoffBase: 2, BackoffCap: 1} }, "backoff_cap"},
		{"negative cooldown", func(c *Config) { c.RecoveryCooldown = -1 }, "cooldown"},
		{"NaN backoff", func(c *Config) { c.Retry = Retry{Budget: 1, BackoffBase: math.NaN()} }, "backoff_base"},
		{"infinite backoff", func(c *Config) { c.Retry = Retry{Budget: 1, BackoffBase: math.Inf(1)} }, "backoff_base"},
		{"NaN cap", func(c *Config) { c.Retry = Retry{Budget: 1, BackoffBase: 1, BackoffCap: math.NaN()} }, "backoff_cap"},
		{"NaN cooldown", func(c *Config) { c.RecoveryCooldown = math.NaN() }, "cooldown"},
	}
	set := twoInstanceCrashSet(t)
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		_, err := New(cfg).Run(set)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestRetryBackoff(t *testing.T) {
	r := Retry{Budget: 5, BackoffBase: 0.25, BackoffCap: 1}
	for k, want := range map[int]float64{1: 0.25, 2: 0.5, 3: 1, 4: 1} {
		if got := r.backoff(k); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", k, got, want)
		}
	}
	if got := (Retry{Budget: 1}).backoff(1); got != 0 {
		t.Fatalf("zero-base backoff = %v, want 0", got)
	}
}

// FuzzParsePolicy: every spec ParsePolicy accepts names a policy whose
// canonical name parses back to the same policy.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"", "rr", "Round-Robin", "least", "slack-aware", " health ", "weighted", "bogus"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePolicy(spec)
		if err != nil {
			return
		}
		again, err := ParsePolicy(p.Name())
		if err != nil {
			t.Fatalf("ParsePolicy(%q) accepted, but its name %q does not re-parse: %v", spec, p.Name(), err)
		}
		if again.Name() != p.Name() {
			t.Fatalf("name %q re-parses as %q", p.Name(), again.Name())
		}
	})
}

// degradeTrail lists a stream's degrade transitions as kind@time:detail.
func degradeTrail(events []obs.Event) []string {
	var trail []string
	for _, ev := range events {
		if ev.Kind == obs.KindDegradeEnter || ev.Kind == obs.KindDegradeExit {
			trail = append(trail, fmt.Sprintf("%s@%v:%s", ev.Kind, ev.Time, ev.Detail))
		}
	}
	return trail
}

// TestClusterDegradeEvents: every instance's admission controller reports
// its degradation transitions in the routed stream, named by instance. A
// one-instance fleet degrades exactly when and as often as the simulator.
func TestClusterDegradeEvents(t *testing.T) {
	spec := workload.NewSpec(1.1, 2).WithN(120).WithWeights()
	newAdmit := func() admit.Controller { return admit.NewMissRatio(0.5, 0.25) }

	simCol := &obs.Collector{}
	if _, err := sim.New(sim.Config{Sink: simCol, Admit: newAdmit()}).Run(spec.MustBuild(), sched.NewEDF()); err != nil {
		t.Fatal(err)
	}
	want := degradeTrail(simCol.Events())
	if len(want) == 0 {
		t.Fatal("the simulator never degraded; the fixture tests nothing")
	}
	for i := range want {
		want[i] += "0" // the one instance's name
	}
	col := &obs.Collector{}
	if _, err := New(Config{Instances: 1, NewScheduler: sched.NewEDF, NewAdmit: newAdmit, Sink: col}).Run(spec.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if got := degradeTrail(col.Events()); !reflect.DeepEqual(got, want) {
		t.Fatalf("one-instance degrade trail %v, simulator %v", got, want)
	}

	col = &obs.Collector{}
	reg := obs.NewRegistry()
	two := workload.NewSpec(2.2, 2).WithN(240).WithWeights()
	if _, err := New(Config{Instances: 2, NewScheduler: sched.NewEDF, NewAdmit: newAdmit, Sink: col, Metrics: reg}).Run(two.MustBuild()); err != nil {
		t.Fatal(err)
	}
	named := map[string]int{}
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindDegradeEnter || ev.Kind == obs.KindDegradeExit {
			named[ev.Detail]++
		}
	}
	if len(named) != 2 || named["0"] == 0 || named["1"] == 0 {
		t.Fatalf("degrade events by instance %v, want both instances named", named)
	}
	if err := obs.Validate(col.Events()); err != nil {
		t.Fatalf("routed stream with degrade events violates invariants: %v", err)
	}
	// Each instance reports its own controller on its own gauge.
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for _, inst := range []string{"0", "1"} {
		if want := `asets_admit_degraded{inst="` + inst + `"}`; !strings.Contains(sb.String(), want) {
			t.Errorf("missing %s in the exposition", want)
		}
	}
}
