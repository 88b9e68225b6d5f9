package slo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/txn"
	"repro/internal/workload"
)

// goldenConfig is the SLO geometry the determinism tests pin down.
func goldenConfig() *slo.Config {
	return &slo.Config{Spec: slo.DefaultSpec(), Window: 50}
}

// goldenPolicies are the schedulers whose alert streams must replay
// byte-identically.
var goldenPolicies = []struct {
	Name string
	New  func() sched.Scheduler
}{
	{"asets", func() sched.Scheduler { return core.New() }},
	{"edf", sched.NewEDF},
}

// goldenStream runs one overloaded fixed-seed workload under a policy with
// the SLO engine wired in and renders the full event stream as JSONL bytes.
func goldenStream(t *testing.T, newSched func() sched.Scheduler, seed uint64) []byte {
	t.Helper()
	cfg := workload.Default(1.4, seed) // past saturation: the budget burns
	cfg.N = 300
	cfg = cfg.WithWeights()
	set, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	_, err = sim.New(sim.Config{Sink: col, SLO: goldenConfig()}).Run(set, newSched())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, ev := range col.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestGoldenAlertStreamPerPolicy: a fixed seed yields a byte-identical
// event stream — alert transitions included — on every replay, per policy.
func TestGoldenAlertStreamPerPolicy(t *testing.T) {
	for _, pol := range goldenPolicies {
		a := goldenStream(t, pol.New, 7)
		b := goldenStream(t, pol.New, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: replay changed the stream", pol.Name)
		}
		if !bytes.Contains(a, []byte(`"kind":"alert_fire"`)) {
			t.Errorf("%s: overloaded run fired no alert:\n%.2000s", pol.Name, a)
		}
	}
}

// TestSerialParallelAlertStreams: the runner's serial and 4-worker paths
// must produce byte-identical streams including alerts (satellite of the
// BENCH_slo gate, kept here so plain `go test` exercises it).
func TestSerialParallelAlertStreams(t *testing.T) {
	run := func(workers int) []byte {
		jobs := make([]runner.Job, 0, len(goldenPolicies)*2)
		cols := make([]*obs.Collector, 0, cap(jobs))
		for _, pol := range goldenPolicies {
			for s := 0; s < 2; s++ {
				seed := uint64(100 + s)
				col := &obs.Collector{}
				cols = append(cols, col)
				jobs = append(jobs, runner.Job{
					Gen: func(sd uint64) (*txn.Set, error) {
						cfg := workload.Default(1.4, sd)
						cfg.N = 200
						cfg = cfg.WithWeights()
						return workload.Generate(cfg)
					},
					Seed:   &seed,
					New:    pol.New,
					Config: sim.Config{Sink: col, Metrics: obs.NewRegistry(), SLO: goldenConfig()},
					Label:  pol.Name,
				})
			}
		}
		if _, err := (runner.Pool{Workers: workers}).Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, col := range cols {
			for _, ev := range col.Events() {
				b, err := json.Marshal(ev)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(b)
				buf.WriteByte('\n')
			}
		}
		return buf.Bytes()
	}
	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("serial and 4-worker streams differ")
	}
	if !bytes.Contains(serial, []byte(`"kind":"alert_fire"`)) {
		t.Fatal("no alert in the overloaded streams")
	}
}

// TestSLOHammer races per-instance engines of a shared registry against
// concurrent Prometheus scrapes — the fleet wiring, minus the HTTP layer.
// Each engine runs on its own goroutine (the engine contract); only the
// registry handles are shared.
func TestSLOHammer(t *testing.T) {
	reg := obs.NewRegistry()
	const instances = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := obs.WritePrometheus(&sb, reg); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var engines sync.WaitGroup
	for i := 0; i < instances; i++ {
		e := slo.NewEngine(*goldenConfig(), string(rune('0'+i)), reg)
		e.Bind(obs.NewRing(64))
		engines.Add(1)
		go func() {
			defer engines.Done()
			tick := 0.0
			for r := 0; r < 5000; r++ {
				e.Advance(tick)
				e.Arrive(r % slo.NumClasses)
				e.Complete(r%slo.NumClasses, float64(r%3), float64(r%7))
				tick += 0.5
			}
			e.Finish()
		}()
	}
	engines.Wait()
	close(stop)
	wg.Wait()
}
