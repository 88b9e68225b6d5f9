package executor_test

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	. "repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
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
				set := c.spec(1).MustBuild()
				plan, ctrl, sc := c.layers()
				if _, err := sim.New(sim.Config{Sink: simSink, Faults: plan, Admit: ctrl, SLO: sc}).Run(set, p.new()); err != nil {
					t.Fatalf("sim: %v", err)
				}
				exSink := &batchLens{}
				set = c.spec(1).MustBuild()
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
// of stream order.
func TestWaitingClockDeliversBeforeSleep(t *testing.T) {
	if Waits(NewFakeClock(time.Unix(0, 0))) || !Waits(RealClock{}) || !Waits(&waitingClock{}) {
		t.Fatal("Waits must be false only for a *FakeClock")
	}
	for _, c := range matrixCells {
		t.Run(c.name, func(t *testing.T) {
			ref := &obs.Collector{}
			set := c.spec(1).MustBuild()
			plan, ctrl, sc := c.layers()
			if _, err := sim.New(sim.Config{Sink: ref, Faults: plan, Admit: ctrl, SLO: sc}).Run(set, core.New()); err != nil {
				t.Fatalf("sim: %v", err)
			}
			want := ref.Events()

			col := &obs.Collector{}
			set = c.spec(1).MustBuild()
			plan, ctrl, sc = c.layers()
			clk := &waitingClock{fake: NewFakeClock(time.Unix(0, 0))}
			ex := New(core.New(), set, Options{
				TimeScale: time.Millisecond, Clock: clk,
				Sink: col, Faults: plan, Admit: ctrl, SLO: sc,
			})
			sleeps, early := 0, 0
			clk.check = func() {
				sleeps++
				from, got := ex.Stats().Now, col.Events()
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
// paced-from instant already delivered — for every cluster cell on a
// two-instance fleet.
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
			if _, err := cluster.New(config(c, obs.Tee(simSink, ref))).Run(c.spec(1).MustBuild()); err != nil {
				t.Fatalf("cluster: %v", err)
			}
			want := ref.Events()
			fleetSink := &batchLens{}
			fleet := cluster.NewFleet(config(c, fleetSink), c.spec(1).MustBuild(), cluster.FleetOptions{
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
			fleet = cluster.NewFleet(config(c, col), c.spec(1).MustBuild(), cluster.FleetOptions{TimeScale: time.Millisecond, Clock: clk})
			sleeps := 0
			clk.check = func() {
				sleeps++
				from, n := fleet.Status().Now, len(col.Events())
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
