package executor

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// fastScale keeps the whole replay in tens of milliseconds.
const fastScale = 20 * time.Microsecond

func smallWorkload(t *testing.T, util float64, wf bool) *txn.Set {
	t.Helper()
	cfg := workload.Default(util, 7)
	cfg.N = 60
	if wf {
		cfg = cfg.WithWorkflows(4, 1)
	}
	return workload.MustGenerate(cfg)
}

func TestRunCompletesEverything(t *testing.T) {
	set := smallWorkload(t, 0.7, false)
	ex := New(sched.NewEDF(), set, Options{TimeScale: fastScale})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n, err := ex.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != set.Len() {
		t.Fatalf("completed %d of %d", n, set.Len())
	}
	for _, tx := range set.Txns {
		if !tx.Finished {
			t.Fatalf("T%d unfinished", tx.ID)
		}
		if tx.FinishTime < tx.Arrival+tx.Length-1e-6 {
			t.Fatalf("T%d finished at %v before arrival+length %v", tx.ID, tx.FinishTime, tx.Arrival+tx.Length)
		}
	}
	if !ex.Done() {
		t.Fatal("Done() false after Run returned")
	}
}

func TestPrecedenceHonoredLive(t *testing.T) {
	set := smallWorkload(t, 0.9, true)
	col := &obs.Collector{}
	ex := New(core.New(), set, Options{TimeScale: fastScale, Sink: col})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := ex.Run(ctx); err != nil {
		t.Fatal(err)
	}
	finished := map[txn.ID]bool{}
	for _, ev := range col.Events() {
		if ev.Kind != obs.KindCompletion {
			continue
		}
		tx := set.ByID(ev.Txn)
		for _, d := range tx.Deps {
			if !finished[d] {
				t.Fatalf("dependency violated for %s", tx)
			}
		}
		finished[tx.ID] = true
	}
}

func TestStatsConsistency(t *testing.T) {
	set := smallWorkload(t, 0.8, false)
	ex := New(sched.NewSRPT(), set, Options{TimeScale: fastScale})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	donec := make(chan struct{})
	go func() {
		defer close(donec)
		if _, err := ex.Run(ctx); err != nil {
			t.Error(err)
		}
	}()
	// Poll stats while the run progresses; snapshots must be monotone and
	// internally consistent.
	prev := ex.Stats()
	for {
		select {
		case <-donec:
			final := ex.Stats()
			if final.Completed != set.Len() {
				t.Fatalf("final completed = %d", final.Completed)
			}
			if final.AvgTardiness() < 0 || final.MaxTardiness < final.AvgTardiness() {
				t.Fatalf("tardiness stats inconsistent: %+v", final)
			}
			if final.Misses > final.Completed {
				t.Fatalf("misses %d > completed %d", final.Misses, final.Completed)
			}
			return
		default:
		}
		s := ex.Stats()
		if s.Completed < prev.Completed || s.Submitted < prev.Submitted {
			t.Fatalf("stats went backwards: %+v -> %+v", prev, s)
		}
		if s.Completed > s.Submitted {
			t.Fatalf("completed %d > submitted %d", s.Completed, s.Submitted)
		}
		prev = s
		time.Sleep(time.Millisecond)
	}
}

func TestCancellation(t *testing.T) {
	cfg := workload.Default(0.8, 9)
	cfg.N = 200
	set := workload.MustGenerate(cfg)
	// A slow scale guarantees the context expires mid-run.
	ex := New(sched.NewEDF(), set, Options{TimeScale: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	n, err := ex.Run(ctx)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if n >= set.Len() {
		t.Fatalf("run completed (%d) despite cancellation", n)
	}
	if !ex.Done() {
		t.Fatal("Done() false after cancelled Run")
	}
}

func TestAvgTardinessEmpty(t *testing.T) {
	var s Stats
	if s.AvgTardiness() != 0 {
		t.Fatal("empty stats tardiness non-zero")
	}
}

// TestStatsAllOnTime: a workload whose deadlines cannot be missed must end
// with every tardiness aggregate exactly zero — the edge /metrics and
// /api/stats both render.
func TestStatsAllOnTime(t *testing.T) {
	txns := []*txn.Transaction{
		{ID: 0, Arrival: 0, Deadline: 100, Length: 1, Weight: 1},
		{ID: 1, Arrival: 1, Deadline: 100, Length: 0.5, Weight: 1},
		{ID: 2, Arrival: 2, Deadline: 100, Length: 2, Weight: 1},
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(sched.NewEDF(), set, Options{
		TimeScale: time.Millisecond,
		Clock:     NewFakeClock(time.Unix(0, 0)),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := ex.Run(ctx); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Completed != 3 || st.Submitted != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SumTardiness != 0 || st.MaxTardiness != 0 || st.Misses != 0 || st.AvgTardiness() != 0 {
		t.Fatalf("on-time run reported tardiness: %+v", st)
	}
}

func TestDefaultTimeScaleApplied(t *testing.T) {
	set := smallWorkload(t, 0.5, false)
	ex := New(sched.NewFCFS(), set, Options{})
	if ex.opts.TimeScale != 200*time.Microsecond {
		t.Fatalf("default scale = %v", ex.opts.TimeScale)
	}
}

// TestLiveMatchesSimulatorExactly: because the executor makes decisions at
// event time and only uses wall-clock sleeps for pacing, a completed run
// produces exactly the simulator's schedule and tardiness on the same
// workload.
func TestLiveMatchesSimulatorExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison")
	}
	cfg := workload.Default(0.8, 21)
	cfg.N = 150
	setSim := workload.MustGenerate(cfg)
	simSum := mustSim(t, setSim)

	setLive := workload.MustGenerate(cfg)
	ex := New(sched.NewSRPT(), setLive, Options{TimeScale: 20 * time.Microsecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := ex.Run(ctx); err != nil {
		t.Fatal(err)
	}
	live := ex.Stats().AvgTardiness()
	if diff := live - simSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("live avg tardiness %v != simulator's %v", live, simSum)
	}
}

func mustSim(t *testing.T, set *txn.Set) float64 {
	t.Helper()
	summary, err := sim.New(sim.Config{}).Run(set, sched.NewSRPT())
	if err != nil {
		t.Fatal(err)
	}
	return summary.AvgTardiness
}

// replayConfig is the workload every FakeClock test replays.
func replayConfig(seed uint64) workload.Config {
	cfg := workload.Default(0.9, seed)
	cfg.N = 300
	return cfg.WithWorkflows(5, 2).WithWeights()
}

// replayTranscript runs one FakeClock replay under ASETS* and renders every
// completion as "T<id>@<finish bits>" — a byte-exact transcript of the
// schedule (%x on the float keeps full precision).
func replayTranscript(t *testing.T, seed uint64) string {
	t.Helper()
	set := workload.MustGenerate(replayConfig(seed))
	col := &obs.Collector{}
	ex := New(core.New(), set, Options{
		TimeScale: time.Millisecond,
		Clock:     NewFakeClock(time.Unix(0, 0)),
		Sink:      col,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if n, err := ex.Run(ctx); err != nil {
		t.Fatal(err)
	} else if n != set.Len() {
		t.Fatalf("completed %d of %d", n, set.Len())
	}
	return completionTranscript(col)
}

// completionTranscript renders every completion event collected as
// "T<id>@<finish bits>".
func completionTranscript(col *obs.Collector) string {
	var sb strings.Builder
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindCompletion {
			fmt.Fprintf(&sb, "T%d@%x\n", ev.Txn, ev.Time)
		}
	}
	return sb.String()
}

// TestFakeClockDeterministic: with the Clock seam closed by a FakeClock, two
// replays of the same seeded workload produce byte-identical completion
// transcripts, and the replayed schedule matches the discrete-event
// simulator bit for bit.
func TestFakeClockDeterministic(t *testing.T) {
	first := replayTranscript(t, 33)
	if first == "" {
		t.Fatal("empty transcript")
	}
	if second := replayTranscript(t, 33); second != first {
		t.Fatalf("replays differ:\n%s\n---\n%s", first, second)
	}

	setSim := workload.MustGenerate(replayConfig(33))
	summary, err := sim.New(sim.Config{}).Run(setSim, core.New())
	if err != nil {
		t.Fatal(err)
	}
	setLive := workload.MustGenerate(replayConfig(33))
	ex := New(core.New(), setLive, Options{
		TimeScale: time.Millisecond,
		Clock:     NewFakeClock(time.Unix(0, 0)),
	})
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if live := ex.Stats().AvgTardiness(); live != summary.AvgTardiness {
		t.Fatalf("fake-clock replay avg tardiness %v != simulator %v", live, summary.AvgTardiness)
	}
}

// TestFakeClockInstant: a FakeClock replay must not consume wall time
// proportional to the schedule (the replay spans hundreds of simulated
// seconds at a millisecond scale; real pacing would take minutes).
func TestFakeClockInstant(t *testing.T) {
	startWall := time.Now()
	replayTranscript(t, 77)
	if elapsed := time.Since(startWall); elapsed > 10*time.Second {
		t.Fatalf("fake-clock replay took %v of wall time", elapsed)
	}
}
