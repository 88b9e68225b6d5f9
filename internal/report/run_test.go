package report

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/txn"
	"repro/internal/workload"
)

// runStream simulates an overloaded weighted workload with the SLO engine on
// and returns the collected event stream plus the set.
func runStream(t *testing.T, seed uint64) ([]obs.Event, *txn.Set) {
	t.Helper()
	cfg := workload.Default(1.4, seed).WithWeights()
	cfg.N = 250
	set := workload.MustGenerate(cfg)
	col := &obs.Collector{}
	sc := &slo.Config{Spec: slo.DefaultSpec(), Window: 50}
	if _, err := sim.New(sim.Config{Sink: col, SLO: sc}).Run(set, sched.NewEDF()); err != nil {
		t.Fatal(err)
	}
	return col.Events(), set
}

func TestRunReportSections(t *testing.T) {
	evs, set := runStream(t, 0x9E10)
	spec := slo.DefaultSpec()
	rep := GenerateRun(evs, RunOptions{Set: set, Spec: &spec, Title: "EDF overload"})
	out := rep.Render()

	for _, want := range []string{
		"# EDF overload",
		"## Per-class percentiles",
		"## Error-budget spend",
		"## Alert timeline",
		"## Worst offenders",
		"| light |",
		"| medium |",
		"| heavy |",
		"FIRE",
		"Still firing at stream end:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// 250 transactions all complete; the three class rows must sum to 250.
	if !strings.Contains(out, "250 completed") {
		t.Error("completion count not reported")
	}
}

func TestRunReportWithoutSetCollapsesToOneClass(t *testing.T) {
	evs, _ := runStream(t, 0x9E11)
	out := GenerateRun(evs, RunOptions{}).Render()
	if !strings.Contains(out, "| all |") {
		t.Error("set-less report should bucket everything under 'all'")
	}
	for _, absent := range []string{"| light |", "## Error-budget spend"} {
		if strings.Contains(out, absent) {
			t.Errorf("set-less report should not contain %q", absent)
		}
	}
}

func TestRunReportEmptyStream(t *testing.T) {
	out := GenerateRun(nil, RunOptions{}).Render()
	for _, want := range []string{
		"0 arrived, 0 completed",
		"No SLO alerts in the stream",
		"No transaction missed its deadline.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty report missing %q", want)
		}
	}
}

func TestRunReportOffenderBound(t *testing.T) {
	evs, set := runStream(t, 0x9E12)
	out := GenerateRun(evs, RunOptions{Set: set, Offenders: 3}).Render()
	tail := out[strings.Index(out, "## Worst offenders"):]
	rows := strings.Count(tail, "\n| ") - 1 // minus the header row
	if rows != 3 {
		t.Fatalf("offender table has %d rows, want 3\n%s", rows, tail)
	}
}

// TestRunReportDeterministic: the same stream renders byte-identically, and
// two independent replays of the same seed produce the same report.
func TestRunReportDeterministic(t *testing.T) {
	evs, set := runStream(t, 0x9E13)
	spec := slo.DefaultSpec()
	a := GenerateRun(evs, RunOptions{Set: set, Spec: &spec}).Render()
	b := GenerateRun(evs, RunOptions{Set: set, Spec: &spec}).Render()
	if a != b {
		t.Fatal("re-rendering the same stream changed the report")
	}
	evs2, set2 := runStream(t, 0x9E13)
	c := GenerateRun(evs2, RunOptions{Set: set2, Spec: &spec}).Render()
	if a != c {
		t.Fatal("replaying the same seed changed the report")
	}
}

// TestRunReportSerialParallelStable: reports rendered from the serial and
// 4-worker runner streams of the same jobs are identical — the report-level
// face of the byte-identical stream contract (docs/PARALLELISM.md).
func TestRunReportSerialParallelStable(t *testing.T) {
	render := func(workers int) []string {
		jobs := make([]runner.Job, 2)
		cols := make([]*obs.Collector, 2)
		for i := range jobs {
			seed := uint64(100 + i)
			col := &obs.Collector{}
			cols[i] = col
			jobs[i] = runner.Job{
				Gen: func(sd uint64) (*txn.Set, error) {
					return workload.Generate(workload.Default(1.4, sd).WithWeights().WithN(200))
				},
				Seed: &seed,
				New:  sched.NewEDF,
				Config: sim.Config{
					Sink: col,
					SLO:  &slo.Config{Spec: slo.DefaultSpec(), Window: 50},
				},
			}
		}
		if _, err := (runner.Pool{Workers: workers}).Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		outs := make([]string, len(jobs))
		for i := range jobs {
			spec := slo.DefaultSpec()
			outs[i] = GenerateRun(cols[i].Events(), RunOptions{Spec: &spec}).Render()
		}
		return outs
	}
	serial, parallel := render(1), render(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("job %d report differs between serial and 4-worker runs", i)
		}
	}
	if !strings.Contains(serial[0], "FIRE") {
		t.Fatal("overloaded report carries no alert; tighten the fixture")
	}
}
