// Package cliflag centralizes the command-line flags the asets CLIs share.
// asetssim, asetsweb and asetsbench each accept the robustness pair
// (-faults, -admit) and a workload -seed; before this package each binary
// re-implemented the registration, validation and fresh-controller logic,
// and the copies had already drifted in their error messages. A CLI
// registers the flags with Add*, parses, then calls Robustness.Load — a bad
// value is a crisp exit-2 usage error (Fatal) before any work starts.
// asetssim and asetsweb also share one -policy table, Policies.
package cliflag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/slo"
)

// Policy is one -policy choice: its CLI name and the factory of a fresh
// scheduler.
type Policy struct {
	Name string
	New  func() sched.Scheduler
}

// Policies is the -policy table of asetssim and asetsweb, sorted by name;
// asetssim -compare runs it in this order. The -ca variants put their base
// policy behind conflict-aware dispatch, which defers transactions predicted
// to conflict with busy work (docs/CONTENTION.md); on keyless workloads they
// reduce to the base.
var Policies = []Policy{
	{"asets", func() sched.Scheduler { return core.New() }},
	{"asets-ca", func() sched.Scheduler { return contention.NewDeferring(core.New(), 0) }},
	{"asets-sym", func() sched.Scheduler {
		return core.New(core.WithRule(core.RuleSymmetric), core.WithName("ASETS*(sym)"))
	}},
	{"edf", sched.NewEDF},
	{"edf-ca", func() sched.Scheduler { return contention.NewDeferring(sched.NewEDF(), 0) }},
	{"fcfs", sched.NewFCFS},
	{"hdf", sched.NewHDF},
	{"hvf", sched.NewHVF},
	{"ls", sched.NewLS},
	{"mix", func() sched.Scheduler { return sched.NewMIX(0.5) }},
	{"ready", func() sched.Scheduler { return core.NewReady() }},
	{"srpt", sched.NewSRPT},
}

// LookupPolicy returns the factory of the named policy.
func LookupPolicy(name string) (func() sched.Scheduler, bool) {
	for _, p := range Policies {
		if p.Name == name {
			return p.New, true
		}
	}
	return nil, false
}

// PolicyNames lists the policy names, comma-separated, for usage text.
func PolicyNames() string {
	names := make([]string, len(Policies))
	for i, p := range Policies {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// Robustness bundles the fault-injection/admission flag pair of a run. The
// loaded plan is immutable and may be shared across runs (each simulation
// builds its own injector from it); controllers carry feedback state, so
// Controller parses a fresh one per call.
type Robustness struct {
	// FaultPath is the -faults value: a fault.Plan JSON file, empty for none.
	FaultPath string
	// AdmitSpec is the -admit value, e.g. "none", "queue:8", "slack:2".
	AdmitSpec string

	plan *fault.Plan
}

// AddRobustness registers -faults and -admit on fs and returns the
// destination. Call Load after fs.Parse.
func AddRobustness(fs *flag.FlagSet) *Robustness {
	r := &Robustness{}
	fs.StringVar(&r.FaultPath, "faults", "", "fault plan JSON file (docs/ROBUSTNESS.md)")
	fs.StringVar(&r.AdmitSpec, "admit", "none", "admission controller: none, queue:N, slack[:tol], missratio[:enter,exit]")
	return r
}

// Load validates both flags — loading the fault plan and parsing the
// admission spec — so a typo is a startup error rather than a mid-run
// failure. It must be called (once, after parsing) before Plan or
// Controller.
func (r *Robustness) Load() error {
	if r.FaultPath != "" {
		plan, err := fault.Load(r.FaultPath)
		if err != nil {
			return err
		}
		r.plan = plan
	}
	if _, err := admit.Parse(r.AdmitSpec); err != nil {
		return err
	}
	return nil
}

// Plan returns the loaded fault plan, or nil when -faults was not given.
func (r *Robustness) Plan() *fault.Plan { return r.plan }

// Controller returns a fresh admission controller parsed from the spec, or
// nil when admission is unconditional. Each run must get its own controller:
// they carry feedback state.
func (r *Robustness) Controller() admit.Controller {
	ctrl, err := admit.Parse(r.AdmitSpec)
	if err != nil {
		// Load validated the spec; reaching here means Load was skipped.
		panic(fmt.Sprintf("cliflag: Controller before Load: %v", err))
	}
	if _, isNone := ctrl.(admit.Unconditional); isNone {
		return nil
	}
	return ctrl
}

// Active reports whether either robustness mechanism is configured.
func (r *Robustness) Active() bool { return r.plan != nil || r.AdmitSpec != "none" }

// Cluster bundles the fault-tolerant fleet flags shared by asetsweb and
// asetsbench: the instance count, the routing policy spec and the failover
// retry budget (docs/ROBUSTNESS.md, "Cluster fault tolerance").
type Cluster struct {
	// Instances is the -instances value: the fleet size (1 = the classic
	// single-backend path).
	Instances int
	// RouteSpec is the -route value, e.g. "rr", "least", "slack", "weighted".
	RouteSpec string
	// RetryBudget, RetryBackoff and RetryBackoffCap are the failover budget
	// flags (-retry-budget, -retry-backoff, -retry-backoff-cap).
	RetryBudget     int
	RetryBackoff    float64
	RetryBackoffCap float64
}

// AddCluster registers the cluster flag set on fs and returns the
// destination. Call Load after fs.Parse.
func AddCluster(fs *flag.FlagSet) *Cluster {
	c := &Cluster{}
	fs.IntVar(&c.Instances, "instances", 1, "cluster instances (fault domains); 1 runs the single backend")
	fs.StringVar(&c.RouteSpec, "route", "rr", "routing policy: rr, least, slack, weighted")
	fs.IntVar(&c.RetryBudget, "retry-budget", cluster.DefaultRetry.Budget, "failovers one crash-lost transaction may consume; 0 drops crash victims (keep -retry-backoff non-zero)")
	fs.Float64Var(&c.RetryBackoff, "retry-backoff", cluster.DefaultRetry.BackoffBase, "delay before the first failover re-enqueue (doubles per failover)")
	fs.Float64Var(&c.RetryBackoffCap, "retry-backoff-cap", cluster.DefaultRetry.BackoffCap, "bound on the failover backoff (0 = uncapped)")
	return c
}

// Load validates the cluster flags — instance count, routing spec and retry
// budget — so a typo is a startup error rather than a mid-run failure.
func (c *Cluster) Load() error {
	if c.Instances < 1 {
		return fmt.Errorf("cluster: instances %d must be positive", c.Instances)
	}
	if _, err := cluster.ParsePolicy(c.RouteSpec); err != nil {
		return err
	}
	return c.Retry().Validate()
}

// Policy returns a fresh routing policy parsed from the spec. Each run must
// get its own: policies may carry state (the round-robin cursor).
func (c *Cluster) Policy() cluster.Policy {
	p, err := cluster.ParsePolicy(c.RouteSpec)
	if err != nil {
		// Load validated the spec; reaching here means Load was skipped.
		panic(fmt.Sprintf("cliflag: Policy before Load: %v", err))
	}
	return p
}

// Retry returns the failover budget assembled from the flags.
func (c *Cluster) Retry() cluster.Retry {
	return cluster.Retry{Budget: c.RetryBudget, BackoffBase: c.RetryBackoff, BackoffCap: c.RetryBackoffCap}
}

// Active reports whether a multi-instance fleet was requested.
func (c *Cluster) Active() bool { return c.Instances > 1 }

// Contention bundles the data-contention flags shared by asetssim and
// asetsweb: the keyspace size, skew and per-transaction read/write set sizes
// (docs/CONTENTION.md). Zero keys means contention is off — the run keeps
// the classic no-validation path.
type Contention struct {
	// Keys is the -keys value: the abstract row count (0 = contention off).
	Keys int
	// Alpha is the -key-alpha Zipf skew (0 = uniform).
	Alpha float64
	// Reads and Writes are the -key-reads/-key-writes set sizes.
	Reads  int
	Writes int
	// ReadOnlyProb is the -readonly-prob chance a transaction draws no writes.
	ReadOnlyProb float64
}

// AddContention registers the contention flag set on fs and returns the
// destination. Call Load after fs.Parse.
func AddContention(fs *flag.FlagSet) *Contention {
	c := &Contention{}
	fs.IntVar(&c.Keys, "keys", 0, "contention keyspace size; 0 disables the data-contention model (docs/CONTENTION.md)")
	fs.Float64Var(&c.Alpha, "key-alpha", 0.9, "Zipf skew of key popularity (0 = uniform)")
	fs.IntVar(&c.Reads, "key-reads", 4, "read-set size per transaction")
	fs.IntVar(&c.Writes, "key-writes", 2, "write-set size per transaction")
	fs.Float64Var(&c.ReadOnlyProb, "readonly-prob", 0, "probability a transaction is read-only (draws no writes)")
	return c
}

// Load validates the contention flags so a bad keyspace is a startup error
// rather than a mid-run failure.
func (c *Contention) Load() error {
	if ks := c.Keyspace(); ks != nil {
		return ks.Validate()
	}
	return nil
}

// Keyspace returns the configured keyspace, or nil when -keys is zero. The
// Seed is left unset so workload.Spec derives it from the workload seed.
func (c *Contention) Keyspace() *contention.Keyspace {
	if c.Keys == 0 {
		return nil
	}
	return &contention.Keyspace{
		Keys: c.Keys, Alpha: c.Alpha,
		Reads: c.Reads, Writes: c.Writes, ReadOnlyProb: c.ReadOnlyProb,
	}
}

// Active reports whether the data-contention model is configured.
func (c *Contention) Active() bool { return c.Keys != 0 }

// SLO bundles the service-level-objective flags shared by asetssim, asetsweb
// and asetsbench: the per-class objective spec, the tumbling-window length
// and the burn-rate window pair (docs/OBSERVABILITY.md, "SLOs and alerting").
// An empty -slo leaves the engine off — the run keeps the classic
// no-evaluation path.
type SLO struct {
	// SpecText is the -slo value: "" (off), "default", or a spec like
	// "light:miss=0.05;heavy:p95=8,queue=32" (slo.ParseSpec grammar).
	SpecText string
	// Window is the -slo-window value: the tumbling-window length in
	// simulated time units.
	Window float64
	// BurnFast and BurnSlow are the -slo-burn-fast/-slo-burn-slow values:
	// how many recent windows the fast and slow burn-rate lookbacks span.
	BurnFast int
	BurnSlow int

	spec *slo.Spec
}

// AddSLO registers the SLO flag set on fs and returns the destination. Call
// Load after fs.Parse.
func AddSLO(fs *flag.FlagSet) *SLO {
	s := &SLO{}
	fs.StringVar(&s.SpecText, "slo", "", `per-class SLOs: "default" or e.g. "light:miss=0.05;heavy:p95=8" (docs/OBSERVABILITY.md); empty = off`)
	fs.Float64Var(&s.Window, "slo-window", 100, "SLO tumbling-window length in simulated time units")
	fs.IntVar(&s.BurnFast, "slo-burn-fast", 2, "windows in the fast burn-rate lookback")
	fs.IntVar(&s.BurnSlow, "slo-burn-slow", 12, "windows in the slow burn-rate lookback (must exceed the fast lookback)")
	return s
}

// Load validates the SLO flags — parsing the spec and checking the window
// geometry — so a typo is a startup error rather than a mid-run failure.
func (s *SLO) Load() error {
	if s.SpecText == "" {
		return nil
	}
	spec, err := slo.ParseSpec(s.SpecText)
	if err != nil {
		return err
	}
	s.spec = &spec
	// slo.Config reads a zero geometry field as "use the default". The
	// flags already default to it, so a zero here was typed: reject it
	// rather than run with a window the user did not ask for.
	if s.Window == 0 {
		return fmt.Errorf("slo: -slo-window 0 must be positive")
	}
	if s.BurnFast == 0 || s.BurnSlow == 0 {
		return fmt.Errorf("slo: burn lookbacks (%d fast, %d slow) must be at least one window", s.BurnFast, s.BurnSlow)
	}
	return s.config().Validate()
}

// config assembles the engine configuration; only valid after Load.
func (s *SLO) config() *slo.Config {
	return &slo.Config{
		Spec:        *s.spec,
		Window:      s.Window,
		FastWindows: s.BurnFast,
		SlowWindows: s.BurnSlow,
	}
}

// Config returns the engine configuration assembled from the flags, or nil
// when -slo was not given. The caller owns the copy; engines themselves are
// built per run.
func (s *SLO) Config() *slo.Config {
	if s.spec == nil {
		if s.SpecText != "" {
			panic("cliflag: SLO.Config before Load")
		}
		return nil
	}
	return s.config()
}

// Active reports whether SLO evaluation is configured.
func (s *SLO) Active() bool { return s.SpecText != "" }

// AddSeed registers the shared -seed flag (base workload seed) on fs.
func AddSeed(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 1, "workload seed")
}

// exit and stderr are seams for the Fatal tests.
var (
	exit             = os.Exit
	stderr io.Writer = os.Stderr
)

// Fatal reports a flag-level usage error the way flag.Parse does — one line
// on stderr, exit status 2 — prefixed with the program name.
func Fatal(prog string, err error) {
	fmt.Fprintf(stderr, "%s: %v\n", prog, err)
	exit(2)
}
