package repro_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/svgplot"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestFullPipeline drives the whole system end to end the way a user would:
// generate a workload, persist it, reload it, simulate it under every major
// policy with trace validation, post-process the schedules, run a small
// experiment, and render its figure as table, CSV and SVG.
func TestFullPipeline(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate and persist.
	cfg := repro.DefaultWorkload(0.85, 2024).WithWorkflows(5, 2).WithWeights()
	cfg.N = 250
	set := repro.MustGenerate(cfg)
	path := filepath.Join(dir, "workload.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteJSON(f, set, &cfg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// 2. Reload and check equivalence.
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, loadedCfg, err := workload.ReadJSON(g)
	g.Close()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != set.Len() || loadedCfg.Seed != cfg.Seed {
		t.Fatalf("reload mismatch: %d txns, cfg %+v", loaded.Len(), loadedCfg)
	}

	// 3. Simulate every policy on the loaded workload, validating traces.
	policies := []repro.Scheduler{
		repro.NewFCFS(), repro.NewEDF(), repro.NewSRPT(), repro.NewLS(),
		repro.NewHDF(), repro.NewHVF(), repro.NewMIX(),
		repro.NewASETSStar(), repro.NewReady(),
	}
	var asetsTard float64
	for _, p := range policies {
		rec := &trace.Recorder{}
		sum, err := repro.Run(loaded, p, repro.SimConfig{Recorder: rec})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := rec.Validate(loaded); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if p.Name() == "ASETS*" {
			asetsTard = sum.AvgWeightedTardiness

			// 4. Post-process the ASETS* schedule.
			classes := analysis.ByDependency(loaded)
			if len(classes) != 2 {
				t.Fatalf("class breakdown: %v", classes)
			}
			dep, q, svc := analysis.SummarizeWaits(analysis.Waits(loaded, rec))
			if svc <= 0 || dep < 0 || q < 0 {
				t.Fatalf("wait decomposition: %v %v %v", dep, q, svc)
			}
			if peakBacklog(analysis.BacklogSeries(loaded, rec, 100)) <= 0 {
				t.Fatal("no backlog observed at utilization 0.85")
			}
		}
	}
	if asetsTard <= 0 {
		t.Fatal("ASETS* reported zero weighted tardiness at load 0.85 — implausible")
	}

	// 5. Multi-server run on the same workload.
	recN := &trace.Recorder{}
	if _, err := sim.New(sim.Config{Servers: 3, Recorder: recN}).Run(loaded, repro.NewASETSStar()); err != nil {
		t.Fatal(err)
	}
	if err := recN.ValidateN(loaded, 3); err != nil {
		t.Fatal(err)
	}

	// 6. Run one registered experiment and render all output formats.
	res, err := experiments.Registry["fig10"](repro.ExperimentOptions{N: 120, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if tbl := res.Figure.Table(); !strings.Contains(tbl, "fig10") {
		t.Fatal("table render missing id")
	}
	if csv := res.Figure.CSV(); !strings.Contains(csv, "utilization") {
		t.Fatal("csv render missing header")
	}
	var svg bytes.Buffer
	if err := svgplot.Render(&svg, res.Figure); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Fatal("svg render broken")
	}

	// 7. Closed-loop sessions through the same policies.
	scfg := workload.DefaultSessions(10, 0.85, 7)
	sset, sessions, err := workload.GenerateSessions(scfg)
	if err != nil {
		t.Fatal(err)
	}
	clRes, err := sim.New(sim.Config{}).RunClosedLoop(sset, sessions, repro.NewASETSStar())
	if err != nil {
		t.Fatal(err)
	}
	if clRes.Summary.N != sset.Len() {
		t.Fatalf("closed loop completed %d of %d", clRes.Summary.N, sset.Len())
	}

	// 8. DOT export of a small workload parses as text.
	small := repro.MustGenerate(repro.DefaultWorkload(0.5, 3).WithWorkflows(3, 1))
	var dot bytes.Buffer
	if err := txn.WriteDOT(&dot, small); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph") {
		t.Fatal("dot export broken")
	}
}

// peakBacklog returns the largest backlog over a series.
func peakBacklog(series []analysis.BacklogPoint) int {
	peak := 0
	for _, p := range series {
		peak = max(peak, p.Backlog)
	}
	return peak
}
