package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/workload"
)

// flagConfig parses args through the shared workload flags.
func flagConfig(t *testing.T, args ...string) workload.Config {
	t.Helper()
	fs := flag.NewFlagSet("asetssim", flag.ContinueOnError)
	wl := cliflag.AddWorkload(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return wl.Config()
}

func TestBuildWorkloadGenerated(t *testing.T) {
	set, cfg, err := buildWorkload("", flagConfig(t, "-n", "200", "-seed", "7", "-wf-len", "5", "-wf-membership", "2",
		"-weights", "-batch", "-random-order"))
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
	set, cfg, err := buildWorkload("", flagConfig(t, "-n", "100", "-util", "0.5", "-kmax", "1"))
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

	loaded, cfg, err := buildWorkload(path, workload.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 50 || cfg == nil || cfg.Seed != 3 {
		t.Fatalf("loaded %d txns, cfg %+v", loaded.Len(), cfg)
	}
}

func TestBuildWorkloadMissingFile(t *testing.T) {
	if _, _, err := buildWorkload("/does/not/exist.json", workload.Config{}); err == nil {
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

// TestBalanceFlags: -bal-time and -bal-count age plain ASETS* in one
// open-loop run; every other combination is a usage error (exit 2 in main).
func TestBalanceFlags(t *testing.T) {
	cases := []struct {
		name              string
		policy            string
		balTime, balCount float64
		compare           bool
		users             int
		want              string // error substring, or the scheduler's name
	}{
		{name: "edf with bal-time", policy: "edf", balTime: 0.01, want: `not "edf"`},
		{name: "srpt with bal-count", policy: "srpt", balCount: 0.05, want: `not "srpt"`},
		{name: "asets-ca with bal-time", policy: "asets-ca", balTime: 0.01, want: `not "asets-ca"`},
		{name: "ready with bal-count", policy: "ready", balCount: 0.05, want: `not "ready"`},
		{name: "compare with bal-time", policy: "asets", balTime: 0.01, compare: true, want: "drop -compare"},
		{name: "compare with bal-count", policy: "asets", balCount: 0.05, compare: true, want: "drop -compare"},
		{name: "users with bal-time", policy: "asets", balTime: 0.01, users: 5, want: "-users"},
		{name: "users with bal-count", policy: "asets", balCount: 0.05, users: 5, want: "-users"},
		{name: "both flags", policy: "asets", balTime: 0.01, balCount: 0.05, want: "give one"},
		{name: "negative bal-time", policy: "asets", balTime: -0.01, want: "-bal-time -0.01 must be"},
		{name: "negative bal-count", policy: "asets", balCount: -1, want: "-bal-count -1 must be"},
		{name: "NaN bal-time", policy: "asets", balTime: math.NaN(), want: "-bal-time NaN must be"},
		{name: "infinite bal-count", policy: "asets", balCount: math.Inf(1), want: "-bal-count +Inf must be"},
		{name: "asets with bal-time", policy: "asets", balTime: 0.01, want: "ASETS*-BAL(t=0.01)"},
		{name: "asets with bal-count", policy: "asets", balCount: 0.05, want: "ASETS*-BAL(c=0.05)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt, err := balanceOption(tc.policy, tc.balTime, tc.balCount, tc.compare, tc.users)
			if strings.HasPrefix(tc.want, "ASETS*") {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if got := core.New(opt).Name(); got != tc.want {
					t.Fatalf("scheduler %q, want %q", got, tc.want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
	for _, policy := range []string{"asets", "edf"} {
		if opt, err := balanceOption(policy, 0, 0, true, 5); opt != nil || err != nil {
			t.Fatalf("-policy %s without balance flags: option %v, error %v", policy, opt != nil, err)
		}
	}
}

// TestWorkloadFlagsShared: the command's Table I workload flags are
// cliflag.AddWorkload's, bound to wl, and a fixed argument list builds the
// configuration that asetssim and workloadgen both pin.
func TestWorkloadFlagsShared(t *testing.T) {
	ref := flag.NewFlagSet("ref", flag.ContinueOnError)
	cliflag.AddWorkload(ref)
	ref.VisitAll(func(f *flag.Flag) {
		if got := flag.CommandLine.Lookup(f.Name); got == nil || got.DefValue != f.DefValue || got.Usage != f.Usage {
			t.Errorf("-%s: got %+v, want %+v", f.Name, got, f)
		}
	})
	saved := *wl
	t.Cleanup(func() { *wl = saved })
	args := map[string]string{
		"util": "0.9", "n": "40", "kmax": "2", "alpha": "0.7", "seed": "5",
		"wf-len": "4", "wf-membership": "2", "weights": "true", "batch": "true", "random-order": "true",
	}
	for name, v := range args {
		if err := flag.CommandLine.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	want := workload.Default(0.9, 5).WithN(40).WithWorkflows(4, 2).WithWeights()
	want.KMax, want.Alpha = 2, 0.7
	want.Arrivals, want.Order = workload.ArrivalsBatch, workload.OrderRandom
	if cfg := wl.Config(); cfg != want {
		t.Errorf("config %+v, want %+v", cfg, want)
	}
}
