package runner

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestSpanSketchesBitIdenticalAcrossWorkers is the parallel acceptance
// criterion for instrumented sweeps: every job of a sweep with per-job span
// builders and windowed quantile sketches must export byte-identical
// /metrics text — and identical span JSONL — whether gathered serially or by
// two or four workers. It exercises the whole chain: SpanBuilder folding,
// sketch observation and the Prometheus summary rendering.
func TestSpanSketchesBitIdenticalAcrossWorkers(t *testing.T) {
	type cell struct {
		set *txn.Set
		mk  func() sched.Scheduler
	}
	var cells []cell
	for _, u := range []float64{0.7, 1.0} {
		for seed := uint64(1); seed <= 2; seed++ {
			cfg := workload.Default(u, seed).WithWorkflows(4, 1).WithWeights()
			cfg.N = 120
			set := workload.MustGenerate(cfg)
			cells = append(cells,
				cell{set, sched.NewEDF},
				cell{set, func() sched.Scheduler { return core.New() }})
		}
	}

	run := func(workers int) ([]string, string) {
		jobs := make([]Job, len(cells))
		builders := make([]*obs.SpanBuilder, len(cells))
		for i, c := range cells {
			reg := obs.NewRegistry()
			sb := obs.NewSpanBuilder(c.set, obs.SpanOptions{Metrics: reg, Window: 25})
			builders[i] = sb
			jobs[i] = Job{
				Set:    c.set,
				New:    c.mk,
				Config: sim.Config{Sink: sb, Metrics: reg},
			}
		}
		if _, err := (Pool{Workers: workers}).Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		prom := make([]string, len(jobs))
		for i := range jobs {
			var page strings.Builder
			if err := obs.WritePrometheus(&page, jobs[i].Config.Metrics); err != nil {
				t.Fatal(err)
			}
			prom[i] = page.String()
		}
		var spans strings.Builder
		for _, sb := range builders {
			if err := obs.WriteSpans(&spans, sb.Spans()); err != nil {
				t.Fatal(err)
			}
		}
		return prom, spans.String()
	}

	serialProm, serialSpans := run(1)
	for i, page := range serialProm {
		if !strings.Contains(page, "# TYPE asets_span_tardiness summary") {
			t.Fatalf("job %d export lacks span sketches:\n%s", i, page)
		}
		if !strings.Contains(page, `asets_window_tardiness{window="`) {
			t.Fatalf("job %d export lacks windowed sketches:\n%s", i, page)
		}
	}
	for _, workers := range []int{2, 4} {
		prom, spans := run(workers)
		for i := range prom {
			if prom[i] != serialProm[i] {
				t.Errorf("workers=%d: job %d /metrics text differs from serial", workers, i)
			}
		}
		if spans != serialSpans {
			t.Errorf("workers=%d: span JSONL differs from serial", workers)
		}
	}
}
