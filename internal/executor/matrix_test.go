package executor_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/core"
	. "repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/txn"
	"repro/internal/workload"
)

// matrixPolicies are the single-backend policies of the cross-engine
// matrix; each entry builds a fresh scheduler per run.
var matrixPolicies = []struct {
	name string
	new  func() sched.Scheduler
}{
	{"FCFS", sched.NewFCFS},
	{"EDF", sched.NewEDF},
	{"SRPT", sched.NewSRPT},
	{"LS", sched.NewLS},
	{"HDF", sched.NewHDF},
	{"ASETS*", func() sched.Scheduler { return core.New() }},
	{"Ready", func() sched.Scheduler { return core.NewReady() }},
	{"CA-ASETS*", func() sched.Scheduler { return contention.NewDeferring(core.New(), 0) }},
}

// matrixCell is one feature column: the workload and the optional layers
// both engines run with.
type matrixCell struct {
	name   string
	spec   func(seed uint64) workload.Spec
	faults func() *fault.Plan
	admit  func() admit.Controller
	slo    bool
}

func matrixSpec(seed uint64) workload.Spec {
	return workload.NewSpec(1.1, seed).WithN(120).WithWeights().WithWorkflows(4, 1)
}

// The admission controllers of the shedding cells.
func queueCap() admit.Controller    { return admit.QueueCap{Max: 8} }
func feasibility() admit.Controller { return admit.Feasibility{Tolerance: 5} }
func missRatio() admit.Controller   { return admit.NewMissRatio(0.5, 0.25) }

// matrixKeys is the contended cells' keyspace.
var matrixKeys = contention.Keyspace{Keys: 64, Alpha: 0.9, Reads: 3, Writes: 2, ReadOnlyProb: 0.2}

var matrixCells = []matrixCell{
	{name: "plain", spec: matrixSpec},
	{name: "faults", spec: matrixSpec, faults: FaultPlan},
	{name: "queuecap", spec: matrixSpec, admit: queueCap},
	{name: "feasibility", spec: matrixSpec, admit: feasibility},
	{name: "missratio", spec: matrixSpec, admit: missRatio},
	{name: "contended", spec: func(seed uint64) workload.Spec { return matrixSpec(seed).WithContention(matrixKeys) }},
	{name: "slo", spec: matrixSpec, slo: true},
}

// engineOutcome is everything the matrix compares between two engines.
type engineOutcome struct {
	events   uint64   // digest of the JSON event stream
	finishes []uint64 // per transaction: FinishTime bits
	shed     []bool   // per transaction: Shed
	// Aborts, restarts, stalls, validate fails and sheds, in that order.
	counts [5]int
	alerts int // alert_fire events in the stream
	// degrades counts degrade_enter events in the stream.
	degrades int
}

func (o engineOutcome) diff(p engineOutcome) string {
	if o.events != p.events {
		return fmt.Sprintf("event digest %016x != %016x", o.events, p.events)
	}
	for i := range o.finishes {
		if o.finishes[i] != p.finishes[i] || o.shed[i] != p.shed[i] {
			return fmt.Sprintf("T%d: finish %x shed %v != finish %x shed %v", i,
				o.finishes[i], o.shed[i], p.finishes[i], p.shed[i])
		}
	}
	if o.counts != p.counts {
		return fmt.Sprintf("aborts/restarts/stalls/validate fails/shed %v != %v", o.counts, p.counts)
	}
	return ""
}

func outcomeOf(set *txn.Set, col *obs.Collector, counts [5]int) engineOutcome {
	h := fnv.New64a()
	o := engineOutcome{counts: counts}
	for _, ev := range col.Events() {
		b, _ := ev.MarshalJSON()
		h.Write(b)
		switch ev.Kind {
		case obs.KindAlertFire:
			o.alerts++
		case obs.KindDegradeEnter:
			o.degrades++
		}
	}
	o.events = h.Sum64()
	for _, t := range set.Txns {
		o.finishes = append(o.finishes, math.Float64bits(t.FinishTime))
		o.shed = append(o.shed, t.Shed)
	}
	return o
}

func (c matrixCell) layers() (*fault.Plan, admit.Controller, *slo.Config) {
	var plan *fault.Plan
	if c.faults != nil {
		plan = c.faults()
	}
	var ctrl admit.Controller
	if c.admit != nil {
		ctrl = c.admit()
	}
	var sc *slo.Config
	if c.slo {
		sc = &slo.Config{Spec: slo.DefaultSpec(), Window: 20}
	}
	return plan, ctrl, sc
}

func runSimCell(t *testing.T, c matrixCell, seed uint64, policy func() sched.Scheduler) engineOutcome {
	t.Helper()
	set := c.spec(seed).MustBuild()
	col := &obs.Collector{}
	plan, ctrl, sc := c.layers()
	sum, err := sim.New(sim.Config{Sink: col, Faults: plan, Admit: ctrl, SLO: sc}).Run(set, policy())
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return outcomeOf(set, col, [5]int{sum.Aborts, sum.Restarts, sum.Stalls, sum.ValidateFails, sum.Shed})
}

func runExecutorCell(t *testing.T, c matrixCell, seed uint64, policy func() sched.Scheduler) engineOutcome {
	t.Helper()
	set := c.spec(seed).MustBuild()
	col := &obs.Collector{}
	plan, ctrl, sc := c.layers()
	ex := New(policy(), set, Options{
		TimeScale: time.Millisecond,
		Clock:     NewFakeClock(time.Unix(0, 0)),
		Sink:      col, Faults: plan, Admit: ctrl, SLO: sc,
	})
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatalf("executor: %v", err)
	}
	st := ex.Stats()
	return outcomeOf(set, col, [5]int{st.Aborts, st.Restarts, st.Stalls, st.ValidateFails, st.Shed})
}

// TestCrossEngineMatrix: the discrete-event simulator (one server) and a
// FakeClock executor replay agree byte for byte — event stream, per-
// transaction finish times and shed marks, fault and contention counters —
// for every policy × feature column × seed.
func TestCrossEngineMatrix(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range matrixCells {
		for _, p := range matrixPolicies {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/%d", c.name, p.name, seed), func(t *testing.T) {
					want := runSimCell(t, c, seed, p.new)
					got := runExecutorCell(t, c, seed, p.new)
					if d := got.diff(want); d != "" {
						t.Fatalf("executor vs sim: %s", d)
					}
				})
			}
		}
	}
}

// TestMatrixCellsExercised guards the matrix against silently vacuous
// columns: each feature must actually fire on the matrix workload.
func TestMatrixCellsExercised(t *testing.T) {
	for _, c := range matrixCells {
		o := runSimCell(t, c, 1, func() sched.Scheduler { return core.New() })
		switch c.name {
		case "faults":
			if o.counts[0] == 0 || o.counts[1] == 0 || o.counts[2] == 0 {
				t.Errorf("%s: no aborts, restarts or stalls: %v", c.name, o.counts)
			}
		case "queuecap", "feasibility":
			if o.counts[4] == 0 {
				t.Errorf("%s: nothing shed", c.name)
			}
		case "missratio":
			if o.counts[4] == 0 || o.degrades == 0 {
				t.Errorf("%s: nothing shed or never degraded", c.name)
			}
		case "contended":
			if o.counts[3] == 0 {
				t.Errorf("%s: no validation failures", c.name)
			}
		case "slo":
			if o.alerts == 0 {
				t.Errorf("%s: no alert fired", c.name)
			}
		}
	}
}

// independentSpec is the matrix workload without workflows: the cluster tier
// routes independent transactions only.
func independentSpec(seed uint64) workload.Spec {
	return workload.NewSpec(1.1, seed).WithN(120).WithWeights()
}

// abortPlan is the faults cell's plan without the parts whose semantics are
// the cluster's own: its keyed aborts, restarts and plain stall window stay.
func abortPlan() *fault.Plan {
	p := FaultPlan()
	p.Stalls = p.Stalls[:1]
	p.Bursts = nil
	if p.Stalls[0].Kind != fault.Stall {
		panic("abortPlan: the faults cell's first window is no longer a plain stall")
	}
	return p
}

// clusterCells is the cluster(N=1, rr) column of the matrix: the dependency-
// free variant of each cell whose semantics a one-instance fleet shares with
// the single backend.
var clusterCells = []matrixCell{
	{name: "plain", spec: independentSpec},
	{name: "aborts", spec: independentSpec, faults: abortPlan},
	{name: "queuecap", spec: independentSpec, admit: queueCap},
	{name: "feasibility", spec: independentSpec, admit: feasibility},
	{name: "missratio", spec: independentSpec, admit: missRatio},
	{name: "contended", spec: func(seed uint64) workload.Spec { return independentSpec(seed).WithContention(matrixKeys) }},
	{name: "slo", spec: independentSpec, slo: true},
}

// clusterExclusions names the matrix cells the cluster column leaves out,
// and why. Their engines differ by design; the column does not force them
// to agree.
var clusterExclusions = map[string]string{
	// A cluster crash is a process restart: it destroys the instance's
	// queued and backing-off work too, where the single backend's crash
	// window destroys only in-flight work. Its flash-crowd burst is a
	// workload transform the cluster rejects (abortPlan keeps the rest).
	"faults": "crash windows destroy queued work in a cluster; bursts are rejected",
	// Every cell's workflows: the router places independent transactions
	// only (independentSpec is each cell's dependency-free variant).
	"workflows": "the cluster rejects dependencies",
}

// clusterSkip reports why policy p leaves cluster cell c out of the column,
// or "" when the two engines must agree.
func clusterSkip(c matrixCell, p string) string {
	switch {
	case p == "LS" && (c.name == "queuecap" || c.name == "feasibility" || c.name == "missratio"):
		// LS's order is time-dependent: a running transaction's key d-r
		// grows as it runs, so a waiting one can come to outrank it with
		// nothing new arriving. The single backend re-decides at every
		// arrival instant, including one whose only arrival is shed, and it
		// really preempts there; the cluster re-decides only on an instance
		// that received work.
		return "LS under shedding: the single backend re-decides at shed-only arrival instants, where LS can really preempt"
	}
	return ""
}

func runClusterCell(t *testing.T, c matrixCell, seed uint64, policy func() sched.Scheduler) engineOutcome {
	t.Helper()
	set := c.spec(seed).MustBuild()
	col := &obs.Collector{}
	plan, _, sc := c.layers()
	cfg := cluster.Config{
		Instances: 1, Policy: cluster.NewRoundRobin(), NewScheduler: policy,
		NewAdmit: c.admit, SLO: sc, Sink: col,
	}
	if plan != nil {
		cfg.Faults = []*fault.Plan{plan}
	}
	res, err := cluster.New(cfg).Run(set)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	s := res.Summary
	return outcomeOf(set, col, [5]int{s.Aborts, s.Restarts, s.Stalls, s.ValidateFails, res.Shed})
}

// TestCrossEngineMatrixCluster: a one-instance round-robin fleet schedules
// every independent matrix cell exactly like the simulator — per-transaction
// finish times and shed marks, fault, contention and shed counters. The
// event streams are not compared: the routed stream adds route events.
func TestCrossEngineMatrixCluster(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range clusterCells {
		for _, p := range matrixPolicies {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/%d", c.name, p.name, seed), func(t *testing.T) {
					if why := clusterSkip(c, p.name); why != "" {
						t.Skip(why)
					}
					want := runSimCell(t, c, seed, p.new)
					got := runClusterCell(t, c, seed, p.new)
					want.events, got.events = 0, 0
					if d := got.diff(want); d != "" {
						t.Fatalf("cluster(N=1) vs sim: %s", d)
					}
				})
			}
		}
	}
}

// TestClusterExclusionsNamed keeps the exclusions honest: every matrix cell
// either has a cluster variant or a named reason it has none.
func TestClusterExclusionsNamed(t *testing.T) {
	variant := map[string]bool{}
	for _, c := range clusterCells {
		variant[c.name] = true
	}
	for _, c := range matrixCells {
		if !variant[c.name] && clusterExclusions[c.name] == "" {
			t.Errorf("matrix cell %q has no cluster variant and no named exclusion", c.name)
		}
	}
}
