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
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// hideKeep forwards a policy without its Keeper (and without Unwrap), so the
// kernel hands every running transaction back at every decision point, and
// counts the policy's OnPreempt calls.
type hideKeep struct {
	sched.Scheduler
	preempts *int
}

func (h hideKeep) SetSink(s obs.Sink) {
	if ss, ok := h.Scheduler.(sched.SinkSetter); ok {
		ss.SetSink(s)
	}
}

func (h hideKeep) OnPreempt(now float64, t *txn.Transaction) {
	*h.preempts++
	h.Scheduler.OnPreempt(now, t)
}

// forward forwards a policy and unwraps to it: a wrapper that changes
// nothing, which the kernel must see through to the policy's Keeper.
type forward struct{ hideKeep }

func (f forward) Unwrap() sched.Scheduler { return f.Scheduler }

// keepPolicy is a policy of the keeping protocol's tests; new builds a
// fresh scheduler per run.
type keepPolicy struct {
	name string
	new  func() sched.Scheduler
}

// keepPolicies are the cross-engine matrix's policies and the CA- form of
// each.
func keepPolicies() []keepPolicy {
	bare := []keepPolicy{
		{"FCFS", sched.NewFCFS},
		{"EDF", sched.NewEDF},
		{"SRPT", sched.NewSRPT},
		{"LS", sched.NewLS},
		{"HDF", sched.NewHDF},
		{"ASETS*", func() sched.Scheduler { return core.New() }},
		{"Ready", func() sched.Scheduler { return core.NewReady() }},
	}
	all := slices.Clone(bare)
	for _, p := range bare {
		all = append(all, keepPolicy{"CA-" + p.name, func() sched.Scheduler { return contention.NewDeferring(p.new(), 0) }})
	}
	return all
}

// keepKeys is the contended cases' keyspace.
var keepKeys = contention.Keyspace{Keys: 64, Alpha: 0.9, Reads: 3, Writes: 2, ReadOnlyProb: 0.2}

// keepCase is one workload and layer combination of the keeping protocol's
// differential test.
type keepCase struct {
	name   string
	spec   func(seed uint64) workload.Spec
	faults bool
}

// keepCases are the differential test's cases: independent and workflow
// sets, each plain, contended and under faults.
func keepCases() []keepCase {
	independent := func(seed uint64) workload.Spec { return workload.NewSpec(1.1, seed).WithN(120).WithWeights() }
	workflows := func(seed uint64) workload.Spec { return independent(seed).WithWorkflows(4, 1) }
	var cases []keepCase
	for _, set := range []keepCase{{name: "independent", spec: independent}, {name: "workflows", spec: workflows}} {
		contended := func(seed uint64) workload.Spec { return set.spec(seed).WithContention(keepKeys) }
		cases = append(cases,
			set,
			keepCase{name: set.name + "+contended", spec: contended},
			keepCase{name: set.name + "+faults", spec: set.spec, faults: true},
		)
	}
	return cases
}

// keepRun is one run's outcome: the stream, the finish bits and shed marks,
// the summary, and the policy's OnPreempt calls.
type keepRun struct {
	events   []obs.Event
	finishes []uint64
	shed     []bool
	sum      *metrics.Summary
	preempts int
}

// runKeepCase runs c under the policy p builds, wrapped by wrap.
func runKeepCase(t *testing.T, c keepCase, seed uint64, servers int, p func() sched.Scheduler, wrap func(hideKeep) sched.Scheduler) keepRun {
	t.Helper()
	set := c.spec(seed).MustBuild()
	col := &obs.Collector{}
	cfg := Config{Servers: servers, Sink: col}
	if c.faults {
		cfg.Faults = hammerPlan()
	}
	var r keepRun
	sum, err := New(cfg).Run(set, wrap(hideKeep{p(), &r.preempts}))
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

func hidden(h hideKeep) sched.Scheduler    { return h }
func forwarded(h hideKeep) sched.Scheduler { return forward{h} }

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

// TestKeepingMatchesReturning is the keeping protocol's differential gate:
// for every matrix policy and its CA- form, at 1, 2 and 4 servers, on
// independent and workflow sets, plain, contended and under faults, a run
// whose policy hides its Keeper (every running transaction is handed back at
// every decision point) and a run that can keep must finish every
// transaction at the same bits with the same summary and emit the same
// stream, event for event. Keeping may only spare OnPreempt calls, and over
// the suite it must spare some.
func TestKeepingMatchesReturning(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	preempts := [2]int{} // OnPreempt calls: returning, keeping
	for _, c := range keepCases() {
		for _, p := range keepPolicies() {
			for _, servers := range []int{1, 2, 4} {
				for _, seed := range seeds {
					name := fmt.Sprintf("%s/%s/S%d/%d", c.name, p.name, servers, seed)
					ret := runKeepCase(t, c, seed, servers, p.new, hidden)
					keep := runKeepCase(t, c, seed, servers, p.new, forwarded)
					if !slices.Equal(ret.finishes, keep.finishes) || !slices.Equal(ret.shed, keep.shed) {
						t.Fatalf("%s: finish bits or shed marks differ", name)
					}
					if !reflect.DeepEqual(ret.sum, keep.sum) {
						t.Fatalf("%s: summary %+v, returning %+v", name, *keep.sum, *ret.sum)
					}
					if d := firstStreamDiff(keep.events, ret.events); d != "" {
						t.Fatalf("%s: keeping stream differs from the returning stream: %s", name, d)
					}
					if keep.preempts > ret.preempts {
						t.Fatalf("%s: %d OnPreempt calls keeping, %d returning", name, keep.preempts, ret.preempts)
					}
					preempts[0] += ret.preempts
					preempts[1] += keep.preempts
				}
			}
		}
	}
	if preempts[1] >= preempts[0] {
		t.Fatalf("keeping runs made %d OnPreempt calls, returning runs %d: nothing was kept", preempts[1], preempts[0])
	}
	t.Logf("OnPreempt calls: %d returning, %d keeping", preempts[0], preempts[1])
}

// TestKeeperFoundThroughUnwrap: a wrapper that only forwards, with Unwrap,
// gets the Keeper of the policy beneath it: the policy sees fewer OnPreempt
// calls than behind a wrapper that hides it, for the same stream.
func TestKeeperFoundThroughUnwrap(t *testing.T) {
	cases := keepCases()[:2] // independent, plain and contended
	for _, p := range keepPolicies() {
		s := p.new()
		k := sched.KeeperOf(s)
		if k == nil {
			continue
		}
		if got := sched.KeeperOf(forward{hideKeep{Scheduler: s}}); got != k {
			t.Fatalf("%s: KeeperOf the forwarding wrapper is %T, want the policy's own", p.name, got)
		}
		for _, c := range cases {
			name := c.name + "/" + p.name
			fwd := runKeepCase(t, c, 1, 2, p.new, forwarded)
			ret := runKeepCase(t, c, 1, 2, p.new, hidden)
			if d := firstStreamDiff(fwd.events, ret.events); d != "" {
				t.Fatalf("%s: forwarding wrapper's stream differs from the hiding one's: %s", name, d)
			}
			if fwd.preempts >= ret.preempts {
				t.Fatalf("%s: the forwarding wrapper did not keep (%d OnPreempt calls, %d hidden)", name, fwd.preempts, ret.preempts)
			}
		}
	}
}

// TestPreemptCounts pins how rarely a policy really preempts, now that only
// a decision point whose choice changes emits a preemption: preemptions per
// transaction over 20k transactions (2.5k for the contended row), seed 1,
// each stream checked by obs.Validate. Table I and the weighted workflow
// chains the live dashboard replays run under ASETS*, whose Keep spares the
// round trip; the other rows run policies that make it at every decision
// point. Announcing every hand-back as a preemption, the same runs counted
// 0.945, 0.799, 0.945, 0.945, 0.656 and 8.424.
func TestPreemptCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-transaction runs")
	}
	const n = 20_000
	for _, c := range []struct {
		name    string
		spec    workload.Spec
		servers int
		policy  func() sched.Scheduler
		max     float64
	}{
		{"table1", workload.NewSpec(0.95, 1).WithN(n), 1, func() sched.Scheduler { return core.New() }, 0.35},
		{"live-replay", workload.NewSpec(0.8, 1).WithWeights().WithWorkflows(5, 1).WithN(n), 1, func() sched.Scheduler { return core.New() }, 0.2},
		{"time-activation", workload.NewSpec(0.95, 1).WithN(n), 1, func() sched.Scheduler { return core.New(core.WithTimeActivation(0.01)) }, 0.39},
		{"AED", workload.NewSpec(0.95, 1).WithN(n), 1, func() sched.Scheduler { return sched.NewAED(1) }, 0.14},
		{"shared-workflows", workload.NewSpec(0.95, 1).WithWeights().WithWorkflows(5, 3).WithN(n), 1, func() sched.Scheduler { return core.New() }, 0.1},
		{"CA-ASETS*", workload.NewSpec(3.4, 1).WithN(2500).WithContention(keepKeys), 4, func() sched.Scheduler { return contention.NewDeferring(core.New(), 0) }, 0.96},
	} {
		set := c.spec.MustBuild()
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
