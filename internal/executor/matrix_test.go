package executor

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/contention"
	"repro/internal/core"
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

var matrixCells = []matrixCell{
	{name: "plain", spec: matrixSpec},
	{name: "faults", spec: matrixSpec, faults: faultPlan},
	{name: "queuecap", spec: matrixSpec, admit: func() admit.Controller { return admit.QueueCap{Max: 8} }},
	{name: "feasibility", spec: matrixSpec, admit: func() admit.Controller { return admit.Feasibility{Tolerance: 5} }},
	{name: "contended", spec: func(seed uint64) workload.Spec {
		return matrixSpec(seed).WithContention(contention.Keyspace{Keys: 64, Alpha: 0.9, Reads: 3, Writes: 2, ReadOnlyProb: 0.2})
	}},
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
		if ev.Kind == obs.KindAlertFire {
			o.alerts++
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
