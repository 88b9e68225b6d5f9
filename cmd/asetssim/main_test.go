package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/workload"
)

func TestBuildWorkloadGenerated(t *testing.T) {
	set, cfg, err := buildWorkload("", 200, 0.8, 3, 0.5, 7, 5, 2, true, true, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 200 {
		t.Fatalf("len = %d", set.Len())
	}
	if cfg == nil || cfg.Seed != 7 || cfg.MaxWorkflowLength != 5 || cfg.WeightMax != 10 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Arrivals != workload.ArrivalsBatch || cfg.Order != workload.OrderRandom {
		t.Fatalf("flags not applied: %+v", cfg)
	}
}

func TestBuildWorkloadIndependent(t *testing.T) {
	set, cfg, err := buildWorkload("", 100, 0.5, 1, 0.5, 1, 1, 1, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range set.Txns {
		if len(tx.Deps) != 0 || tx.Weight != 1 {
			t.Fatalf("independent workload has %v", tx)
		}
	}
	if cfg.MaxWorkflowLength != 1 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestBuildWorkloadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	gen := workload.Default(0.6, 3)
	gen.N = 50
	set := workload.MustGenerate(gen)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteJSON(f, set, &gen); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, cfg, err := buildWorkload(path, 0, 0, 0, 0, 0, 0, 0, false, false, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 50 || cfg == nil || cfg.Seed != 3 {
		t.Fatalf("loaded %d txns, cfg %+v", loaded.Len(), cfg)
	}
}

func TestBuildWorkloadMissingFile(t *testing.T) {
	if _, _, err := buildWorkload("/does/not/exist.json", 0, 0, 0, 0, 0, 0, 0, false, false, false, nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRunOneObsOutputs drives the -events/-spans/-timeline/-invariants paths
// end to end: all files must appear, parse, and the event and span streams
// must be byte-identical across two fixed-seed runs.
func TestRunOneObsOutputs(t *testing.T) {
	dir := t.TempDir()
	run := func(tag string) (eventsPath, spansPath, timelinePath string) {
		eventsPath = filepath.Join(dir, tag+".jsonl")
		spansPath = filepath.Join(dir, tag+"-spans.jsonl")
		timelinePath = filepath.Join(dir, tag+".json")
		cfg := workload.Default(0.9, 11)
		cfg.N = 120
		set := workload.MustGenerate(cfg)
		runOne(set, core.New(), 1, false, false, false,
			obsOutputs{eventsPath: eventsPath, spansPath: spansPath, timelinePath: timelinePath, validate: true},
			&cliflag.Robustness{AdmitSpec: "none"})
		return eventsPath, spansPath, timelinePath
	}
	ev1, sp1, tl := run("a")
	ev2, sp2, _ := run("b")

	b1, err := os.ReadFile(ev1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(ev2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) == 0 {
		t.Fatal("empty event stream")
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("fixed-seed -events outputs differ")
	}
	sc := bufio.NewScanner(bytes.NewReader(b1))
	lines := 0
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if _, ok := ev["kind"]; !ok {
			t.Fatalf("line %d missing kind: %s", lines+1, sc.Text())
		}
		lines++
	}
	if lines < 240 { // at least arrival+completion per transaction
		t.Fatalf("only %d event lines", lines)
	}

	s1, err := os.ReadFile(sp1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := os.ReadFile(sp2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) == 0 {
		t.Fatal("empty span stream")
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("fixed-seed -spans outputs differ")
	}
	spanLines := 0
	sc = bufio.NewScanner(bytes.NewReader(s1))
	for sc.Scan() {
		var sp struct {
			Txn       *int     `json:"txn"`
			Response  *float64 `json:"response"`
			Completed bool     `json:"completed"`
		}
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line %d: %v", spanLines+1, err)
		}
		if sp.Txn == nil || sp.Response == nil || !sp.Completed {
			t.Fatalf("span line %d malformed: %s", spanLines+1, sc.Text())
		}
		spanLines++
	}
	if spanLines != 120 {
		t.Fatalf("%d span lines, want 120", spanLines)
	}

	tb, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("timeline doc = %q with %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
}

func TestPolicyMapComplete(t *testing.T) {
	for _, p := range cliflag.Policies {
		s := p.New()
		if s == nil || s.Name() == "" {
			t.Errorf("policy %q broken", p.Name)
		}
	}
	if len(cliflag.Policies) < 10 {
		t.Errorf("only %d policies registered", len(cliflag.Policies))
	}
}
