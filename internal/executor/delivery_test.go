package executor_test

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	. "repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// batchLens is a BatchSink that records the length of every delivery: the
// shape of the stream's batching, not its content.
type batchLens struct{ lens []int }

func (b *batchLens) Emit(obs.Event) { b.lens = append(b.lens, 1) }

func (b *batchLens) EmitSharedBatch(evs []obs.Event) { b.lens = append(b.lens, len(evs)) }

// TestInstantReplayBatchesAsSim pins the instant half of the delivery
// contract: a FakeClock replay never pauses, so it hands its sinks exactly
// the batches sim.Run hands them — full staging buffers and the final
// flush — for every policy and feature column, SLO engine included.
func TestInstantReplayBatchesAsSim(t *testing.T) {
	for _, c := range matrixCells {
		for _, p := range matrixPolicies {
			t.Run(fmt.Sprintf("%s/%s", c.name, p.name), func(t *testing.T) {
				simSink := &batchLens{}
				set := workload.MustGenerate(c.spec(1))
				plan, ctrl, sc := c.layers()
				if _, err := sim.New(sim.Config{Sink: simSink, Faults: plan, Admit: ctrl, SLO: sc}).Run(set, p.new()); err != nil {
					t.Fatalf("sim: %v", err)
				}
				exSink := &batchLens{}
				set = workload.MustGenerate(c.spec(1))
				plan, ctrl, sc = c.layers()
				ex := New(p.new(), set, Options{
					TimeScale: time.Millisecond, Clock: NewFakeClock(time.Unix(0, 0)),
					Sink: exSink, Faults: plan, Admit: ctrl, SLO: sc,
				})
				if _, err := ex.Run(context.Background()); err != nil {
					t.Fatalf("executor: %v", err)
				}
				if len(simSink.lens) < 2 {
					t.Fatalf("sim delivered %d batches; the fixture no longer fills the staging buffer", len(simSink.lens))
				}
				if !slices.Equal(exSink.lens, simSink.lens) {
					t.Fatalf("executor batch lengths %v, sim %v", exSink.lens, simSink.lens)
				}
			})
		}
	}
}

// streamState is what a live read at a pause at instant now must report,
// from the reference stream evs: the arrivals, completions, sheds and
// routes stamped at or before now, and the transactions dispatched and not
// since preempted, completed, aborted or rewound, each with the instance its
// dispatch names ("" on a single backend).
type streamState struct {
	arrived, completed, shed, routed int
	running                          map[txn.ID]string
}

func stateAt(evs []obs.Event, now float64) streamState {
	st := streamState{running: map[txn.ID]string{}}
	for _, ev := range evs {
		if ev.Time > now {
			break
		}
		switch ev.Kind {
		case obs.KindArrival:
			st.arrived++
		case obs.KindCompletion:
			st.completed++
		case obs.KindShed:
			st.shed++
		case obs.KindRoute:
			st.routed++
		case obs.KindDispatch:
			st.running[ev.Txn] = ev.Detail
		}
		switch ev.Kind {
		case obs.KindPreempt, obs.KindCompletion, obs.KindAbort, obs.KindValidateFail:
			delete(st.running, ev.Txn)
		}
	}
	return st
}

// checkStats requires an executor's live read to agree with the reference
// stream at the instant it reports.
func checkStats(t *testing.T, sleep int, got Stats, want []obs.Event) {
	t.Helper()
	st := stateAt(want, got.Now)
	running := txn.ID(-1)
	for id := range st.running {
		running = id
	}
	if len(st.running) > 1 || got.Completed != st.completed || got.Submitted != st.arrived ||
		got.Shed != st.shed || got.Running != running {
		t.Fatalf("sleep %d at %v: Stats completed %d, submitted %d, shed %d, running %d; the stream %d, %d, %d, %v",
			sleep, got.Now, got.Completed, got.Submitted, got.Shed, got.Running, st.completed, st.arrived, st.shed, st.running)
	}
}

// checkFleetStatus requires a fleet's live read to agree with the reference
// stream at the instant it reports.
func checkFleetStatus(t *testing.T, sleep int, got cluster.FleetStatus, want []obs.Event) {
	t.Helper()
	st := stateAt(want, got.Now)
	routed, running := 0, make([]int, len(got.Instances))
	for id, inst := range st.running {
		i, err := strconv.Atoi(inst)
		if err != nil || i < 0 || i >= len(running) {
			t.Fatalf("sleep %d: T%d dispatched on instance %q", sleep, id, inst)
		}
		running[i]++
	}
	for i, is := range got.Instances {
		routed += is.Routed
		if is.Running != running[i] {
			t.Fatalf("sleep %d at %v: instance %d reports %d running, the stream %d", sleep, got.Now, i, is.Running, running[i])
		}
	}
	if got.Completed != st.completed || got.Shed != st.shed || got.Routes != st.routed || routed != st.arrived {
		t.Fatalf("sleep %d at %v: Status completed %d, shed %d, routes %d, admitted %d; the stream %d, %d, %d, %d",
			sleep, got.Now, got.Completed, got.Shed, got.Routes, routed, st.completed, st.shed, st.routed, st.arrived)
	}
}

// waitingClock is a clock that Waits reports as waiting (it is not a
// *FakeClock) yet advances instantly like one; check runs at every Sleep,
// before the clock moves.
type waitingClock struct {
	fake  *FakeClock
	check func()
}

func (c *waitingClock) Now() time.Time { return c.fake.Now() }

func (c *waitingClock) Sleep(ctx context.Context, d time.Duration) error {
	c.check()
	return c.fake.Sleep(ctx, d)
}

// TestWaitingClockDeliversBeforeSleep pins the live half of the delivery
// contract, the guarantee the server's ring and SSE streams rely on: under a
// clock that waits, at every pacing sleep the sinks already hold every event
// stamped at or before the instant the executor paces from, and nothing out
// of stream order. Stats agrees with that stream there: its counts are the
// stream's up to that instant, and its running transaction is the one
// dispatched and not yet set aside.
func TestWaitingClockDeliversBeforeSleep(t *testing.T) {
	if Waits(NewFakeClock(time.Unix(0, 0))) || !Waits(RealClock{}) || !Waits(&waitingClock{}) {
		t.Fatal("Waits must be false only for a *FakeClock")
	}
	for _, c := range matrixCells {
		t.Run(c.name, func(t *testing.T) {
			ref := &obs.Collector{}
			set := workload.MustGenerate(c.spec(1))
			plan, ctrl, sc := c.layers()
			if _, err := sim.New(sim.Config{Sink: ref, Faults: plan, Admit: ctrl, SLO: sc}).Run(set, core.New()); err != nil {
				t.Fatalf("sim: %v", err)
			}
			want := ref.Events()

			col := &obs.Collector{}
			set = workload.MustGenerate(c.spec(1))
			plan, ctrl, sc = c.layers()
			clk := &waitingClock{fake: NewFakeClock(time.Unix(0, 0))}
			ex := New(core.New(), set, Options{
				TimeScale: time.Millisecond, Clock: clk,
				Sink: col, Faults: plan, Admit: ctrl, SLO: sc,
			})
			sleeps, early := 0, 0
			clk.check = func() {
				sleeps++
				st := ex.Stats()
				checkStats(t, sleeps, st, want)
				from, got := st.Now, col.Events()
				if !slices.Equal(got, want[:min(len(got), len(want))]) {
					t.Fatalf("sleep %d: delivered stream is not a prefix of the sim stream", sleeps)
				}
				for i := len(got); i < len(want); i++ {
					if want[i].Time <= from {
						t.Fatalf("sleep %d at %v: event %d (%s at %v) not yet delivered; %d of %d delivered",
							sleeps, from, i, want[i].Kind, want[i].Time, len(got), len(want))
					}
				}
				if len(got)%128 != 0 {
					early++
				}
			}
			if _, err := ex.Run(context.Background()); err != nil {
				t.Fatalf("executor: %v", err)
			}
			if sleeps == 0 || early == 0 {
				t.Fatalf("%d sleeps, %d between staging-buffer fills: the check is vacuous", sleeps, early)
			}
			if !slices.Equal(col.Events(), want) {
				t.Fatal("final stream differs from the sim stream")
			}
		})
	}
}

// TestFleetDeliveryFollowsClock: cluster.Fleet.Run follows the executor's
// rule through the same predicate. An instant fleet replay hands its sinks
// exactly the batches cluster.Sim.Run does, and under a clock that waits
// every pacing sleep finds every event stamped at or before the fleet's
// paced-from instant already delivered, and a Status that agrees with the
// stream up to that instant, transactions dispatched — for every cluster
// cell on a two-instance fleet.
func TestFleetDeliveryFollowsClock(t *testing.T) {
	config := func(c matrixCell, sink obs.Sink) cluster.Config {
		plan, _, sc := c.layers()
		cfg := cluster.Config{
			Instances: 2, NewScheduler: func() sched.Scheduler { return core.New() },
			NewAdmit: c.admit, SLO: sc, Sink: sink,
		}
		if plan != nil {
			cfg.Faults = []*fault.Plan{plan, nil}
		}
		return cfg
	}
	for _, c := range clusterCells {
		t.Run(c.name, func(t *testing.T) {
			simSink, ref := &batchLens{}, &obs.Collector{}
			if _, err := cluster.New(config(c, obs.Tee(simSink, ref))).Run(workload.MustGenerate(c.spec(1))); err != nil {
				t.Fatalf("cluster: %v", err)
			}
			want := ref.Events()
			fleetSink := &batchLens{}
			fleet := cluster.NewFleet(config(c, fleetSink), workload.MustGenerate(c.spec(1)), cluster.FleetOptions{
				TimeScale: time.Millisecond, Clock: NewFakeClock(time.Unix(0, 0)),
			})
			if _, err := fleet.Run(context.Background()); err != nil {
				t.Fatalf("instant fleet: %v", err)
			}
			if len(simSink.lens) < 2 || !slices.Equal(fleetSink.lens, simSink.lens) {
				t.Fatalf("instant fleet batch lengths %v, cluster.Sim.Run %v", fleetSink.lens, simSink.lens)
			}

			col := &obs.Collector{}
			clk := &waitingClock{fake: NewFakeClock(time.Unix(0, 0))}
			fleet = cluster.NewFleet(config(c, col), workload.MustGenerate(c.spec(1)), cluster.FleetOptions{TimeScale: time.Millisecond, Clock: clk})
			sleeps := 0
			clk.check = func() {
				sleeps++
				st := fleet.Status()
				checkFleetStatus(t, sleeps, st, want)
				from, n := st.Now, len(col.Events())
				for i := n; i < len(want); i++ {
					if want[i].Time <= from {
						t.Fatalf("sleep %d at %v: event %d (%s at %v) not yet delivered", sleeps, from, i, want[i].Kind, want[i].Time)
					}
				}
			}
			if _, err := fleet.Run(context.Background()); err != nil {
				t.Fatalf("paced fleet: %v", err)
			}
			if sleeps == 0 || !slices.Equal(col.Events(), want) {
				t.Fatalf("%d sleeps; the paced stream differs from cluster.Sim.Run's", sleeps)
			}
		})
	}
}
