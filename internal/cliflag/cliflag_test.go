package cliflag

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// parseRobustness registers the shared flags on a fresh FlagSet, parses args
// and runs Load — the exact startup sequence of the CLIs.
func parseRobustness(t *testing.T, args ...string) (*Robustness, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&bytes.Buffer{})
	r := AddRobustness(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return r, r.Load()
}

func writePlan(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRobustnessErrors is the table of bad flag values every CLI must turn
// into an exit-2 usage error via Fatal.
func TestRobustnessErrors(t *testing.T) {
	cases := []struct {
		name string
		args func(t *testing.T) []string
		want string
	}{
		{
			name: "missing fault plan file",
			args: func(t *testing.T) []string { return []string{"-faults", "/nonexistent/plan.json"} },
			want: "no such file",
		},
		{
			name: "malformed fault plan JSON",
			args: func(t *testing.T) []string { return []string{"-faults", writePlan(t, "{not json")} },
			want: "invalid character",
		},
		{
			name: "invalid fault plan",
			args: func(t *testing.T) []string { return []string{"-faults", writePlan(t, `{"abort_prob": 2}`)} },
			want: "abort",
		},
		{
			name: "unknown admission controller",
			args: func(t *testing.T) []string { return []string{"-admit", "bogus"} },
			want: "bogus",
		},
		{
			name: "bad queue capacity",
			args: func(t *testing.T) []string { return []string{"-admit", "queue:0"} },
			want: "queue",
		},
		{
			name: "bad missratio thresholds",
			args: func(t *testing.T) []string { return []string{"-admit", "missratio:0.1"} },
			want: "missratio",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseRobustness(t, tc.args(t)...)
			if err == nil {
				t.Fatalf("args accepted; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestRobustnessDefaultsInactive(t *testing.T) {
	r, err := parseRobustness(t)
	if err != nil {
		t.Fatal(err)
	}
	if r.Active() {
		t.Fatal("defaults should be inactive")
	}
	if r.Plan() != nil {
		t.Fatal("no -faults should mean a nil plan")
	}
	if r.Controller() != nil {
		t.Fatal("admit=none should mean a nil controller")
	}
}

func TestControllerIsFreshPerCall(t *testing.T) {
	// missratio carries feedback state, so Parse hands out a pointer — each
	// run must get a distinct instance.
	r, err := parseRobustness(t, "-admit", "missratio:0.5,0.25")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Active() {
		t.Fatal("missratio should be active")
	}
	a, b := r.Controller(), r.Controller()
	if a == nil || b == nil {
		t.Fatal("missratio produced a nil controller")
	}
	if a == b {
		t.Fatal("controllers carry feedback state and must not be shared between runs")
	}
}

func TestRobustnessLoadsValidPlan(t *testing.T) {
	path := writePlan(t, `{"seed": 7, "abort_prob": 0.1, "max_restarts": 2}`)
	r, err := parseRobustness(t, "-faults", path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan() == nil {
		t.Fatal("valid plan not retained")
	}
	if !r.Active() {
		t.Fatal("a loaded plan should be active")
	}
}

func TestAddSeedDefault(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	seed := AddSeed(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *seed != 1 {
		t.Fatalf("default seed %d, want 1", *seed)
	}
	if err := fs.Parse([]string{"-seed", "99"}); err != nil {
		t.Fatal(err)
	}
	if *seed != 99 {
		t.Fatalf("parsed seed %d, want 99", *seed)
	}
}

// workloadDefaults are the workload flags asetssim and workloadgen each
// declared by hand before they shared AddWorkload, with their defaults.
var workloadDefaults = map[string]string{
	"util": "0.8", "n": "1000", "kmax": "3", "alpha": "0.5", "seed": "1",
	"wf-len": "1", "wf-membership": "1",
	"weights": "false", "batch": "false", "random-order": "false",
}

// handConfig is the configuration asetssim and workloadgen assembled from
// those flags by hand.
func handConfig(util float64, n int, kmax, alpha float64, seed uint64, wfLen, wfMem int, weights, batch, random bool) workload.Config {
	cfg := workload.Default(util, seed)
	cfg.N = n
	cfg.KMax = kmax
	cfg.Alpha = alpha
	if wfLen > 1 {
		cfg = cfg.WithWorkflows(wfLen, wfMem)
	}
	if weights {
		cfg = cfg.WithWeights()
	}
	if batch {
		cfg.Arrivals = workload.ArrivalsBatch
	}
	if random {
		cfg.Order = workload.OrderRandom
	}
	return cfg
}

// TestWorkloadFlags: AddWorkload registers exactly the ten workload flags
// with their old defaults, and Config builds what the hand assembly built.
func TestWorkloadFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	w := AddWorkload(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if len(got) != len(workloadDefaults) {
		t.Errorf("flags %v, want %v", got, workloadDefaults)
	}
	for name, def := range workloadDefaults {
		if got[name] != def {
			t.Errorf("-%s default %q, want %q", name, got[name], def)
		}
	}
	if cfg, want := w.Config(), handConfig(0.8, 1000, 3, 0.5, 1, 1, 1, false, false, false); cfg != want {
		t.Errorf("default config %+v, want %+v", cfg, want)
	}
	for _, c := range []struct {
		args []string
		want workload.Config
	}{
		{[]string{"-util", "0.6", "-n", "50", "-kmax", "1", "-alpha", "0.9", "-seed", "7"},
			handConfig(0.6, 50, 1, 0.9, 7, 1, 1, false, false, false)},
		{[]string{"-wf-len", "5", "-wf-membership", "3", "-weights", "-batch", "-random-order"},
			handConfig(0.8, 1000, 3, 0.5, 1, 5, 3, true, true, true)},
		{[]string{"-wf-len", "1", "-wf-membership", "4", "-weights"},
			handConfig(0.8, 1000, 3, 0.5, 1, 1, 4, true, false, false)},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		w := AddWorkload(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if cfg := w.Config(); cfg != c.want {
			t.Errorf("%v: config %+v, want %+v", c.args, cfg, c.want)
		}
	}
}

// parseCluster mirrors parseRobustness for the fleet flag bundle.
func parseCluster(t *testing.T, args ...string) (*Cluster, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&bytes.Buffer{})
	c := AddCluster(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return c, c.Load()
}

// TestClusterErrors is the table of bad fleet flag values every CLI must
// turn into an exit-2 usage error via Fatal.
func TestClusterErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero instances", []string{"-instances", "0"}, "instances"},
		{"negative instances", []string{"-instances", "-3"}, "instances"},
		{"unknown route", []string{"-route", "bogus"}, "bogus"},
		{"negative retry budget", []string{"-retry-budget", "-1"}, "retry budget"},
		{"negative retry backoff", []string{"-retry-backoff", "-0.5"}, "backoff_base"},
		{"negative backoff cap", []string{"-retry-backoff-cap", "-1"}, "backoff_cap"},
		{"cap below base", []string{"-retry-backoff", "4", "-retry-backoff-cap", "1"}, "backoff_cap"},
		{"NaN retry backoff", []string{"-retry-backoff", "NaN"}, "backoff_base"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseCluster(t, tc.args...)
			if err == nil {
				t.Fatalf("args %v accepted; want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestClusterDefaultsSingleBackend(t *testing.T) {
	c, err := parseCluster(t)
	if err != nil {
		t.Fatal(err)
	}
	if c.Active() {
		t.Fatal("one instance should not activate the fleet path")
	}
	if got := c.Policy().Name(); got != "rr" {
		t.Fatalf("default policy %q, want rr", got)
	}
	if c.Retry() != cluster.DefaultRetry {
		t.Fatalf("default retry %+v, want %+v", c.Retry(), cluster.DefaultRetry)
	}
}

func TestClusterPolicyIsFreshPerCall(t *testing.T) {
	c, err := parseCluster(t, "-instances", "4", "-route", "rr")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Active() {
		t.Fatal("four instances should activate the fleet path")
	}
	if a, b := c.Policy(), c.Policy(); a == b {
		t.Fatal("round-robin policies carry cursor state and must not be shared between runs")
	}
}

// TestFatalExitsTwo pins the flag-error convention: one line on stderr
// naming the program, process exit status 2.
func TestFatalExitsTwo(t *testing.T) {
	var buf bytes.Buffer
	var code int
	oldExit, oldStderr := exit, stderr
	exit = func(c int) { code = c }
	stderr = &buf
	defer func() { exit, stderr = oldExit, oldStderr }()

	_, err := parseRobustness(t, "-admit", "bogus")
	if err == nil {
		t.Fatal("bogus spec accepted")
	}
	Fatal("asetssim", err)
	if code != 2 {
		t.Fatalf("Fatal exited %d, want 2", code)
	}
	if !strings.HasPrefix(buf.String(), "asetssim: ") {
		t.Fatalf("Fatal output %q should name the program", buf.String())
	}
}

// parseSLO registers the SLO flags on a fresh FlagSet, parses args and runs
// Load — the exact startup sequence of the CLIs.
func parseSLO(t *testing.T, args ...string) (*SLO, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&bytes.Buffer{})
	s := AddSLO(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return s, s.Load()
}

// TestSLOErrors is the table of bad SLO flag values every CLI must turn into
// an exit-2 usage error via Fatal.
func TestSLOErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "unknown class",
			args: []string{"-slo", "bogus:miss=0.1"},
			want: "bogus",
		},
		{
			name: "unknown objective key",
			args: []string{"-slo", "light:latency=1"},
			want: "latency",
		},
		{
			name: "miss ratio above one",
			args: []string{"-slo", "light:miss=1.5"},
			want: "miss",
		},
		{
			name: "negative window",
			args: []string{"-slo", "default", "-slo-window", "-10"},
			want: "window",
		},
		{
			name: "NaN window",
			args: []string{"-slo", "default", "-slo-window", "NaN"},
			want: "window",
		},
		{
			name: "zero window",
			args: []string{"-slo", "default", "-slo-window", "0"},
			want: "window",
		},
		{
			name: "zero fast lookback",
			args: []string{"-slo", "default", "-slo-burn-fast", "0"},
			want: "lookback",
		},
		{
			name: "fast lookback not below slow",
			args: []string{"-slo", "default", "-slo-burn-fast", "12", "-slo-burn-slow", "12"},
			want: "fast",
		},
		{
			name: "empty clause",
			args: []string{"-slo", "light:miss=0.1;;heavy:p95=4"},
			want: "empty",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseSLO(t, tc.args...)
			if err == nil {
				t.Fatalf("args accepted; want error containing %q", tc.want)
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestSLODefaultsInactive(t *testing.T) {
	s, err := parseSLO(t)
	if err != nil {
		t.Fatal(err)
	}
	if s.Active() {
		t.Fatal("defaults should be inactive")
	}
	if s.Config() != nil {
		t.Fatal("no -slo should mean a nil config")
	}
}

func TestSLOConfigAssembly(t *testing.T) {
	s, err := parseSLO(t, "-slo", "light:miss=0.02;heavy:p95=8,queue=32",
		"-slo-window", "25", "-slo-burn-fast", "3", "-slo-burn-slow", "9")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Active() {
		t.Fatal("-slo given but inactive")
	}
	cfg := s.Config()
	if cfg == nil {
		t.Fatal("nil config after Load")
	}
	if cfg.Window != 25 || cfg.FastWindows != 3 || cfg.SlowWindows != 9 {
		t.Fatalf("window geometry not carried: %+v", cfg)
	}
	light := cfg.Spec.Classes[0]
	if light.MissRatio != 0.02 {
		t.Fatalf("light miss ratio = %v, want 0.02", light.MissRatio)
	}
	if cfg.Spec.Classes[2].TardinessP95 != 8 || cfg.Spec.Classes[2].QueueBound != 32 {
		t.Fatalf("heavy clause not carried: %+v", cfg.Spec.Classes[2])
	}
	// Each call hands out a fresh copy: engines must not share Config state.
	if s.Config() == cfg {
		t.Fatal("Config must return a fresh copy per call")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSLODefaultSpecKeyword(t *testing.T) {
	s, err := parseSLO(t, "-slo", "default")
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg == nil {
		t.Fatal("nil config for -slo default")
	}
	for i, c := range cfg.Spec.Classes {
		if c.MissRatio != 0.05 {
			t.Fatalf("class %d miss ratio = %v, want the 0.05 default", i, c.MissRatio)
		}
	}
}

// TestPoliciesSorted: the -policy table is sorted by name with no
// duplicates (asetssim -compare prints it in this order), every entry
// builds a named scheduler, and LookupPolicy finds each one.
func TestPoliciesSorted(t *testing.T) {
	for i, p := range Policies {
		if i > 0 && Policies[i-1].Name >= p.Name {
			t.Errorf("policy %q follows %q", p.Name, Policies[i-1].Name)
		}
		if s := p.New(); s == nil || s.Name() == "" {
			t.Errorf("policy %q builds no named scheduler", p.Name)
		}
		if _, ok := LookupPolicy(p.Name); !ok {
			t.Errorf("LookupPolicy(%q) failed", p.Name)
		}
	}
	if _, ok := LookupPolicy("nope"); ok {
		t.Error("LookupPolicy accepted an unknown name")
	}
}
