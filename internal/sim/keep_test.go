package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/sched"
	"repro/internal/workload"
)

// hideKeep forwards a policy without its Keeper (and without Unwrap), so the
// kernel returns every running transaction at every decision point.
type hideKeep struct{ sched.Scheduler }

func (h hideKeep) SetSink(s obs.Sink) {
	if ss, ok := h.Scheduler.(sched.SinkSetter); ok {
		ss.SetSink(s)
	}
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
// and the summary.
type keepRun struct {
	events   []obs.Event
	finishes []uint64
	shed     []bool
	sum      *metrics.Summary
}

func runKeepCase(t *testing.T, c keepCase, seed uint64, servers int, s sched.Scheduler) keepRun {
	t.Helper()
	set := c.spec(seed).MustBuild()
	col := &obs.Collector{}
	cfg := Config{Servers: servers, Sink: col}
	if c.faults {
		cfg.Faults = hammerPlan()
	}
	sum, err := New(cfg).Run(set, s)
	if err != nil {
		t.Fatal(err)
	}
	r := keepRun{events: col.Events(), sum: sum}
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

func countKind(events []obs.Event, k obs.Kind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestKeepingMatchesReturning is the keeping protocol's differential gate:
// for every matrix policy and its CA- form, at 1, 2 and 4 servers, on
// independent and workflow sets, plain, contended and under faults, a run
// whose policy hides its Keeper (every running transaction returns at every
// decision point) and a run that keeps must finish every transaction at the
// same bits with the same summary, and the returning run's stream, folded
// by obstest.FoldKeeps, must equal the keeping run's stream. A CA- policy
// declines to keep a conflicting running transaction even where Next's
// work-conserving fallback would check it out again, so its keeping stream
// may still hold such round trips: for those the gate compares both streams
// folded.
func TestKeepingMatchesReturning(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	preempts := [2]int{} // returning, keeping
	for _, c := range keepCases() {
		for _, p := range keepPolicies() {
			for _, servers := range []int{1, 2, 4} {
				for _, seed := range seeds {
					name := fmt.Sprintf("%s/%s/S%d/%d", c.name, p.name, servers, seed)
					ret := runKeepCase(t, c, seed, servers, hideKeep{p.new()})
					keep := runKeepCase(t, c, seed, servers, p.new())
					if !slices.Equal(ret.finishes, keep.finishes) || !slices.Equal(ret.shed, keep.shed) {
						t.Fatalf("%s: finish bits or shed marks differ", name)
					}
					if !reflect.DeepEqual(ret.sum, keep.sum) {
						t.Fatalf("%s: summary %+v, returning %+v", name, *keep.sum, *ret.sum)
					}
					folded, got := obstest.FoldKeeps(ret.events), keep.events
					if strings.HasPrefix(p.name, "CA-") {
						got = obstest.FoldKeeps(got)
					}
					if d := firstStreamDiff(got, folded); d != "" {
						t.Fatalf("%s: keeping stream differs from the folded returning stream: %s", name, d)
					}
					preempts[0] += countKind(ret.events, obs.KindPreempt)
					preempts[1] += countKind(keep.events, obs.KindPreempt)
				}
			}
		}
	}
	if preempts[1] >= preempts[0] {
		t.Fatalf("keeping runs emitted %d preempts, returning runs %d: nothing was kept", preempts[1], preempts[0])
	}
	t.Logf("preempt events: %d returning, %d keeping", preempts[0], preempts[1])
}

// TestKeeperFoundThroughUnwrap: a wrapper that only forwards, with Unwrap,
// gets the keeping protocol of the policy beneath it — its stream equals
// the bare policy's, and differs from the returning one — and a Deferring
// wrapped the same way answers through its own Keep, not its inner
// policy's.
func TestKeeperFoundThroughUnwrap(t *testing.T) {
	cases := keepCases()[:2] // independent, plain and contended
	for _, p := range keepPolicies() {
		for _, c := range cases {
			name := c.name + "/" + p.name
			s := p.new()
			wrapped := forward{hideKeep{s}}
			if got := sched.KeeperOf(wrapped); got != s.(sched.Keeper) {
				t.Fatalf("%s: KeeperOf the forwarding wrapper is %T, want the policy's own", name, got)
			}
			bare := runKeepCase(t, c, 1, 2, p.new())
			fwd := runKeepCase(t, c, 1, 2, forward{hideKeep{p.new()}})
			if d := firstStreamDiff(fwd.events, bare.events); d != "" {
				t.Fatalf("%s: forwarding wrapper's stream differs from the bare policy's: %s", name, d)
			}
			ret := runKeepCase(t, c, 1, 2, hideKeep{p.new()})
			if firstStreamDiff(fwd.events, ret.events) == "" {
				t.Fatalf("%s: the forwarding wrapper did not keep", name)
			}
		}
	}
}

// TestPreemptCounts pins how rarely ASETS* at one server really preempts,
// now that a decision point whose choice does not change keeps the running
// transaction: preemptions per transaction over 20k transactions, seed 1,
// on the paper's Table I workload and on the weighted workflow chains the
// live dashboard replays. Returning at every decision point, the same runs
// counted 0.945 and 0.799.
func TestPreemptCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-transaction runs")
	}
	for _, c := range []struct {
		name string
		spec workload.Spec
		max  float64
	}{
		{"table1", workload.NewSpec(0.95, 1), 0.35},
		{"live-replay", workload.NewSpec(0.8, 1).WithWeights().WithWorkflows(5, 1), 0.2},
	} {
		set := c.spec.WithN(20_000).MustBuild()
		reg := obs.NewRegistry()
		if _, err := New(Config{Metrics: reg}).Run(set, core.New()); err != nil {
			t.Fatal(err)
		}
		got := float64(reg.Counter(sched.MetricPreemptions, "").Value()) / float64(set.Len())
		t.Logf("%s: %.3f preemptions per transaction", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.3f preemptions per transaction, want at most %.2f", c.name, got, c.max)
		}
	}
}
