package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// calls counts the protocol calls that reach a policy through a wrapper.
type calls struct{ next, preempt int }

// hide forwards a policy without its Decider (and without Unwrap), so every
// re-decision makes the round trip of OnPreempt and Next calls, and counts
// the Next and OnPreempt calls that reach the policy.
type hide struct {
	sched.Scheduler
	n *calls
}

func (h hide) SetSink(s obs.Sink) {
	if ss, ok := h.Scheduler.(sched.SinkSetter); ok {
		ss.SetSink(s)
	}
}

func (h hide) Next(now float64) *txn.Transaction {
	h.n.next++
	return h.Scheduler.Next(now)
}

func (h hide) OnPreempt(now float64, t *txn.Transaction) {
	h.n.preempt++
	h.Scheduler.OnPreempt(now, t)
}

// forward forwards a policy and unwraps to it: a counting wrapper that
// changes nothing, which the kernel and Deferring must see through to the
// policy's Decider.
type forward struct{ hide }

func (f forward) Unwrap() sched.Scheduler { return f.Scheduler }

// wrapper wraps a policy for one run, counting into n.
type wrapper func(s sched.Scheduler, n *calls) sched.Scheduler

func hidden(s sched.Scheduler, n *calls) sched.Scheduler    { return hide{s, n} }
func forwarded(s sched.Scheduler, n *calls) sched.Scheduler { return forward{hide{s, n}} }

// decidePolicy is a policy of the decision call's tests: base builds a fresh
// policy per run, and ca puts it under contention.Deferring.
type decidePolicy struct {
	name string
	base func() sched.Scheduler
	ca   bool
}

// build makes the run's scheduler, wrapping every layer with wrap: the
// policy and, in a CA- form, the Deferring over it. n counts the calls that
// reach the policy itself.
func (p decidePolicy) build(wrap wrapper, n *calls) sched.Scheduler {
	s := wrap(p.base(), n)
	if p.ca {
		s = wrap(contention.NewDeferring(s, 0), &calls{})
	}
	return s
}

// decidePolicies are the cross-engine matrix's policies and the CA- form of
// each.
func decidePolicies() []decidePolicy {
	bare := []decidePolicy{
		{"FCFS", sched.NewFCFS, false},
		{"EDF", sched.NewEDF, false},
		{"SRPT", sched.NewSRPT, false},
		{"LS", sched.NewLS, false},
		{"HDF", sched.NewHDF, false},
		{"ASETS*", func() sched.Scheduler { return core.New() }, false},
		{"Ready", func() sched.Scheduler { return core.NewReady() }, false},
	}
	all := slices.Clone(bare)
	for _, p := range bare {
		all = append(all, decidePolicy{"CA-" + p.name, p.base, true})
	}
	return all
}

// keepKeys is the contended cases' keyspace.
var keepKeys = contention.Keyspace{Keys: 64, Alpha: 0.9, Reads: 3, Writes: 2, ReadOnlyProb: 0.2}

// decideCase is one workload and layer combination of the decision call's
// differential test.
type decideCase struct {
	name   string
	spec   func(seed uint64) workload.Config
	faults bool
}

// decideCases are the differential test's cases: independent and workflow
// sets, each plain, contended and under faults.
func decideCases() []decideCase {
	independent := func(seed uint64) workload.Config { return workload.Default(1.1, seed).WithN(120).WithWeights() }
	workflows := func(seed uint64) workload.Config { return independent(seed).WithWorkflows(4, 1) }
	var cases []decideCase
	for _, set := range []decideCase{{name: "independent", spec: independent}, {name: "workflows", spec: workflows}} {
		contended := func(seed uint64) workload.Config { return set.spec(seed).WithContention(keepKeys) }
		cases = append(cases,
			set,
			decideCase{name: set.name + "+contended", spec: contended},
			decideCase{name: set.name + "+faults", spec: set.spec, faults: true},
		)
	}
	return cases
}

// decideRun is one run's outcome: the stream, the finish bits and shed
// marks, the summary, and the calls that reached the policy.
type decideRun struct {
	events   []obs.Event
	finishes []uint64
	shed     []bool
	sum      *metrics.Summary
	calls    calls
}

// runDecideCase runs c under p with every layer wrapped by wrap.
func runDecideCase(t *testing.T, c decideCase, seed uint64, servers int, p decidePolicy, wrap wrapper) decideRun {
	t.Helper()
	set := workload.MustGenerate(c.spec(seed))
	col := &obs.Collector{}
	cfg := Config{Servers: servers, Sink: col}
	if c.faults {
		cfg.Faults = hammerPlan()
	}
	var r decideRun
	sum, err := New(cfg).Run(set, p.build(wrap, &r.calls))
	if err != nil {
		t.Fatal(err)
	}
	r.events, r.sum = col.Events(), sum
	for i := range r.events {
		r.events[i].Seq = 0
	}
	for _, tx := range set.Txns {
		r.finishes = append(r.finishes, math.Float64bits(tx.FinishTime))
		r.shed = append(r.shed, tx.Shed)
	}
	return r
}

// firstStreamDiff describes where two streams part, or returns "".
func firstStreamDiff(got, want []obs.Event) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("event %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d events, want %d", len(got), len(want))
	}
	return ""
}

// TestKeepingMatchesReturning is the decision call's differential gate: for
// every matrix policy and its CA- form, at 1, 2 and 4 servers, on
// independent and workflow sets, plain, contended and under faults, a run
// that hides the sched.Decider at every layer, the policy under Deferring
// included (every re-decision makes the round trip), and a run that
// reaches it must finish every transaction at the same bits with the same
// shed marks and summary and emit the same stream, event for event. The
// call may only spare the policy Next and OnPreempt calls, and over the
// suite it must spare some.
func TestKeepingMatchesReturning(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var total [2]int // Next and OnPreempt calls: returning, deciding
	for _, c := range decideCases() {
		for _, p := range decidePolicies() {
			for _, servers := range []int{1, 2, 4} {
				for _, seed := range seeds {
					name := fmt.Sprintf("%s/%s/S%d/%d", c.name, p.name, servers, seed)
					ret := runDecideCase(t, c, seed, servers, p, hidden)
					dec := runDecideCase(t, c, seed, servers, p, forwarded)
					if !slices.Equal(ret.finishes, dec.finishes) || !slices.Equal(ret.shed, dec.shed) {
						t.Fatalf("%s: finish bits or shed marks differ", name)
					}
					if !reflect.DeepEqual(ret.sum, dec.sum) {
						t.Fatalf("%s: summary %+v, returning %+v", name, *dec.sum, *ret.sum)
					}
					if d := firstStreamDiff(dec.events, ret.events); d != "" {
						t.Fatalf("%s: deciding stream differs from the returning stream: %s", name, d)
					}
					if dec.calls.next > ret.calls.next || dec.calls.preempt > ret.calls.preempt {
						t.Fatalf("%s: %+v policy calls deciding, %+v returning", name, dec.calls, ret.calls)
					}
					total[0] += ret.calls.next + ret.calls.preempt
					total[1] += dec.calls.next + dec.calls.preempt
				}
			}
		}
	}
	if total[1] >= total[0] {
		t.Fatalf("deciding runs made %d policy calls, returning runs %d: nothing was decided at once", total[1], total[0])
	}
	t.Logf("Next and OnPreempt calls: %d returning, %d deciding", total[0], total[1])
}

// TestDeciderFoundThroughUnwrap: the kernel and Deferring find a policy's
// Decider down a forwarding wrapper's Unwrap chain, so the policy sees fewer
// Next and OnPreempt calls than behind a wrapper that hides it, for the same
// stream; behind the hiding wrapper the kernel falls back to the round
// trip.
func TestDeciderFoundThroughUnwrap(t *testing.T) {
	cases := decideCases()[:2] // independent, plain and contended
	for _, p := range decidePolicies() {
		if sched.DeciderOf(p.build(hidden, &calls{})) != nil {
			t.Fatalf("%s: a hiding wrapper exposes a Decider", p.name)
		}
		if sched.DeciderOf(p.base()) == nil {
			continue // the kernel always makes the round trip
		}
		for _, c := range cases {
			name := c.name + "/" + p.name
			fwd := runDecideCase(t, c, 1, 2, p, forwarded)
			ret := runDecideCase(t, c, 1, 2, p, hidden)
			if d := firstStreamDiff(fwd.events, ret.events); d != "" {
				t.Fatalf("%s: forwarding wrapper's stream differs from the hiding one's: %s", name, d)
			}
			if fwd.calls.next+fwd.calls.preempt >= ret.calls.next+ret.calls.preempt {
				t.Fatalf("%s: the forwarding wrapper did not reach the Decider (%+v calls, %+v hidden)", name, fwd.calls, ret.calls)
			}
		}
	}
}

// TestPreemptCounts pins how rarely a policy really preempts, now that only
// a decision point whose choice changes emits a preemption: preemptions per
// transaction over 20k transactions (2.5k for the contended row), seed 1,
// each stream checked by obs.Validate. Table I, the weighted workflow
// chains the live dashboard replays and the CA- row run ASETS*, whose
// Decider settles most re-decisions in one call; the other rows run
// policies that make the round trip at every decision point. Announcing every hand-back as a preemption, the same runs counted
// 0.945, 0.799, 0.945, 0.945, 0.656 and 8.424.
func TestPreemptCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-transaction runs")
	}
	const n = 20_000
	for _, c := range []struct {
		name    string
		spec    workload.Config
		servers int
		policy  func() sched.Scheduler
		max     float64
	}{
		{"table1", workload.Default(0.95, 1).WithN(n), 1, func() sched.Scheduler { return core.New() }, 0.35},
		{"live-replay", workload.Default(0.8, 1).WithWeights().WithWorkflows(5, 1).WithN(n), 1, func() sched.Scheduler { return core.New() }, 0.2},
		{"time-activation", workload.Default(0.95, 1).WithN(n), 1, func() sched.Scheduler { return core.New(core.WithTimeActivation(0.01)) }, 0.39},
		{"AED", workload.Default(0.95, 1).WithN(n), 1, func() sched.Scheduler { return sched.NewAED(1) }, 0.14},
		{"shared-workflows", workload.Default(0.95, 1).WithWeights().WithWorkflows(5, 3).WithN(n), 1, func() sched.Scheduler { return core.New() }, 0.1},
		{"CA-ASETS*", workload.Default(3.4, 1).WithN(2500).WithContention(keepKeys), 4, func() sched.Scheduler { return contention.NewDeferring(core.New(), 0) }, 0.96},
	} {
		set := workload.MustGenerate(c.spec)
		reg, col := obs.NewRegistry(), &obs.Collector{}
		if _, err := New(Config{Servers: c.servers, Metrics: reg, Sink: col}).Run(set, c.policy()); err != nil {
			t.Fatal(err)
		}
		if err := obs.Validate(col.Events()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := float64(reg.Counter(obs.KindPreempt.Counter(), "").Value()) / float64(set.Len())
		t.Logf("%s: %.3f preemptions per transaction", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.3f preemptions per transaction, want at most %.2f", c.name, got, c.max)
		}
	}
}

// sweepKeys is the keyspace of perfbench's contention-sweep jobs.
var sweepKeys = contention.Keyspace{Keys: 4096, Alpha: 0.9, Reads: 4, Writes: 2}

// TestDecisionCalls pins the protocol calls that reach ASETS* per
// transaction in the shape of perfbench's contention-sweep jobs (2,500
// transactions at utilization 3.4 on 4 servers, the Zipf keyspace
// sweepKeys, the 16 job seeds of perfbench seed 1), under CA-ASETS* and
// blind ASETS*: a counting wrapper that unwraps sits right above ASETS*,
// under the Deferring. With the decision call, a re-decision reaches ASETS*
// as one Decide; Next and OnPreempt calls are left for fills of an idle
// kernel, declined decisions and validation-failure rewinds. Making the
// round trip at every re-decision, the same runs counted 35.26 Next and
// 33.59 OnPreempt calls per transaction (CA-ASETS*) and 3.27 and 2.26
// (ASETS*).
func TestDecisionCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("16 seeds of 2,500-transaction contended runs per policy")
	}
	for _, c := range []struct {
		name      string
		ca        bool
		next, pre float64 // bounds per transaction
	}{
		{"CA-ASETS*", true, 0.02, 0.15}, // measured 0.0036 and 0.1361
		{"ASETS*", false, 0.02, 0.28},   // measured 0.0019 and 0.2619
	} {
		var n calls
		txns := 0
		for j := range uint64(16) {
			set := workload.MustGenerate(workload.Default(3.4, rng.Derive(1, j)).WithN(2500).WithContention(sweepKeys))
			var s sched.Scheduler = forward{hide{core.New(), &n}}
			if c.ca {
				s = contention.NewDeferring(s, 0)
			}
			if _, err := New(Config{Servers: 4}).Run(set, s); err != nil {
				t.Fatal(err)
			}
			txns += set.Len()
		}
		next, pre := float64(n.next)/float64(txns), float64(n.preempt)/float64(txns)
		t.Logf("%s: %.4f Next and %.4f OnPreempt calls per transaction", c.name, next, pre)
		if next > c.next || pre > c.pre {
			t.Errorf("%s: %.2f Next and %.2f OnPreempt calls per transaction, want at most %.2f and %.2f", c.name, next, pre, c.next, c.pre)
		}
	}
}
