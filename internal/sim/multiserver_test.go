package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

func TestTwoServersRunConcurrently(t *testing.T) {
	// Two equal transactions at t=0 on two servers finish together at 5.
	set := mustSet(t, mk(0, 0, 100, 5), mk(1, 0, 100, 5))
	rec := &trace.Recorder{}
	sum, err := New(Config{Servers: 2, Recorder: rec}).Run(set, sched.NewSRPT())
	if err != nil {
		t.Fatal(err)
	}
	if set.ByID(0).FinishTime != 5 || set.ByID(1).FinishTime != 5 {
		t.Fatalf("finishes %v %v, want both 5", set.ByID(0).FinishTime, set.ByID(1).FinishTime)
	}
	if sum.Makespan != 5 || math.Abs(sum.BusyTime-10) > 1e-9 {
		t.Fatalf("makespan %v busy %v", sum.Makespan, sum.BusyTime)
	}
	if err := rec.ValidateN(set, 2); err != nil {
		t.Fatal(err)
	}
	// The same trace must fail single-server validation (true overlap).
	if err := rec.Validate(set); err == nil {
		t.Fatal("overlapping two-server trace passed single-server validation")
	}
}

func TestServersDefaultAndInvalid(t *testing.T) {
	set := mustSet(t, mk(0, 0, 10, 1))
	if _, err := New(Config{Servers: -1}).Run(set, sched.NewFCFS()); err == nil {
		t.Fatal("negative servers accepted")
	}
	if _, err := New(Config{}).Run(set, sched.NewFCFS()); err != nil {
		t.Fatal(err)
	}
}

func TestMoreServersThanWork(t *testing.T) {
	set := mustSet(t, mk(0, 0, 10, 2), mk(1, 0, 10, 3))
	sum, err := New(Config{Servers: 8}).Run(set, sched.NewEDF())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Makespan != 3 {
		t.Fatalf("makespan %v, want 3 (fully parallel)", sum.Makespan)
	}
}

func TestMultiServerPrecedence(t *testing.T) {
	// A chain cannot parallelize: T1 waits for T0 even with free servers.
	set := mustSet(t, mk(0, 0, 10, 4), mk(1, 0, 20, 2, 0))
	rec := &trace.Recorder{}
	if _, err := New(Config{Servers: 4, Recorder: rec}).Run(set, core.New()); err != nil {
		t.Fatal(err)
	}
	if set.ByID(1).FinishTime != 6 {
		t.Fatalf("dependent finished at %v, want 6", set.ByID(1).FinishTime)
	}
	if err := rec.ValidateN(set, 4); err != nil {
		t.Fatal(err)
	}
}

func TestMultiServerNoDuplicateDispatch(t *testing.T) {
	// The ASETS* checkout must prevent the same head from reaching two
	// servers even when its workflow stays enqueued via other members: a
	// DAG whose two leaves are ready simultaneously is fine, but a single
	// ready head must never double-dispatch. Run a stressy workload and
	// rely on the simulator's double-dispatch check plus trace validation.
	cfg := workload.Default(1.8, 5).WithWorkflows(5, 2).WithWeights()
	cfg.N = 400
	cfg.Order = workload.OrderRandom
	set := workload.MustGenerate(cfg)
	rec := &trace.Recorder{}
	if _, err := New(Config{Servers: 3, Recorder: rec}).Run(set, core.New()); err != nil {
		t.Fatal(err)
	}
	if err := rec.ValidateN(set, 3); err != nil {
		t.Fatal(err)
	}
}

func TestMultiServerAllPoliciesValid(t *testing.T) {
	cfg := workload.Default(2.5, 9) // offered load 2.5 over 3 servers
	cfg.N = 300
	policies := []sched.Scheduler{
		sched.NewFCFS(), sched.NewEDF(), sched.NewSRPT(), sched.NewLS(),
		sched.NewHDF(), core.New(), core.NewReady(),
	}
	for _, p := range policies {
		set := workload.MustGenerate(cfg)
		rec := &trace.Recorder{}
		sum, err := New(Config{Servers: 3, Recorder: rec}).Run(set, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := rec.ValidateN(set, 3); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if sum.BusyTime <= sum.Makespan {
			t.Fatalf("%s: busy %v should exceed makespan %v with 3 busy servers", p.Name(), sum.BusyTime, sum.Makespan)
		}
	}
}

func TestMultiServerReducesTardiness(t *testing.T) {
	// Same offered work, more servers: tardiness must drop sharply.
	cfg := workload.Default(0.9, 13)
	cfg.N = 500
	one := New(Config{Servers: 1}).MustRun(workload.MustGenerate(cfg), core.New())
	two := New(Config{Servers: 2}).MustRun(workload.MustGenerate(cfg), core.New())
	if two.AvgTardiness >= one.AvgTardiness {
		t.Fatalf("2 servers (%v) not better than 1 (%v)", two.AvgTardiness, one.AvgTardiness)
	}
}

// TestMultiServerTraceUnfragmented: on 2 and 4 servers the recorder keeps
// one slice per contiguous execution — no transaction has two slices where
// one ends as the next begins — and counts no more preemptions than the
// event stream reports.
func TestMultiServerTraceUnfragmented(t *testing.T) {
	for _, servers := range []int{2, 4} {
		for _, p := range []sched.Scheduler{sched.NewEDF(), core.New()} {
			set := workload.MustGenerate(workload.Default(0.9*float64(servers), 3).WithN(300).WithWeights())
			rec, col := &trace.Recorder{}, &obs.Collector{}
			if _, err := New(Config{Servers: servers, Recorder: rec, Sink: col}).Run(set, p); err != nil {
				t.Fatal(err)
			}
			if err := rec.ValidateN(set, servers); err != nil {
				t.Fatalf("%d servers, %s: %v", servers, p.Name(), err)
			}
			lastEnd := map[txn.ID]float64{}
			for _, s := range rec.Slices {
				if end, ok := lastEnd[s.ID]; ok && end == s.Start {
					t.Fatalf("%d servers, %s: transaction %d fragmented at %v", servers, p.Name(), s.ID, s.Start)
				}
				lastEnd[s.ID] = s.End
			}
			preempts := 0
			for _, ev := range col.Events() {
				if ev.Kind == obs.KindPreempt {
					preempts++
				}
			}
			if got := rec.Preemptions(set); got > preempts {
				t.Fatalf("%d servers, %s: trace counts %d preemptions, the stream %d", servers, p.Name(), got, preempts)
			}
		}
	}
}
