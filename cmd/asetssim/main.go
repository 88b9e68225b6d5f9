// Command asetssim runs a single simulation of a generated (or loaded)
// workload under one scheduling policy and prints the performance summary —
// the interactive counterpart to asetsbench's full sweeps.
//
// Usage:
//
//	asetssim -policy asets -util 0.8
//	asetssim -policy edf -util 0.6 -kmax 1 -alpha 0.9 -seed 7
//	asetssim -policy asets -wf-len 5 -weights -trace
//	asetssim -policy ready -load workload.json
//	asetssim -compare -util 0.9           # run every policy on one workload
//	asetssim -events out.jsonl            # decision-event stream, one JSON per line
//	asetssim -spans out.jsonl             # per-transaction causal spans, one JSON per line
//	asetssim -timeline out.json           # Chrome trace-event timeline (Perfetto)
//	asetssim -faults plan.json -admit slack:2   # fault injection + shedding
//	asetssim -keys 64 -policy asets-ca    # data contention + conflict-aware dispatch
//
// -faults names a fault.Plan JSON file and -admit selects an admission
// controller (none, queue:N, slack[:tol], missratio[:enter,exit]); see
// docs/ROBUSTNESS.md. Both are validated before the run starts and compose
// with -compare (the plan is shared; each policy gets a fresh controller).
//
// -keys enables the data-contention model (docs/CONTENTION.md): every
// transaction draws a Zipf-skewed read/write set and the simulator switches
// to commit-time validation with deterministic re-execution. The -ca policy
// variants wrap their base policy with conflict-aware dispatch.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// wl holds the Table I workload flags asetssim shares with workloadgen.
var wl = cliflag.AddWorkload(flag.CommandLine)

func main() {
	var (
		policy   = flag.String("policy", "asets", "policy: "+cliflag.PolicyNames())
		balTime  = flag.Float64("bal-time", 0, "balance-aware time activation rate (asets only)")
		balCount = flag.Float64("bal-count", 0, "balance-aware count activation rate (asets only)")
		load     = flag.String("load", "", "load workload JSON instead of generating")
		save     = flag.String("save", "", "save the generated workload JSON to this path")
		doTrace  = flag.Bool("trace", false, "record, validate and summarize the schedule")
		events   = flag.String("events", "", "write the scheduler decision-event stream as JSONL to this path")
		spans    = flag.String("spans", "", "write per-transaction causal spans as JSONL to this path")
		timeline = flag.String("timeline", "", "write a Chrome trace-event timeline (Perfetto-loadable) to this path (implies -trace)")
		analyze  = flag.Bool("analyze", false, "print class breakdowns, wait decomposition and tardiness histogram (implies -trace)")
		gantt    = flag.Bool("gantt", false, "render an ASCII Gantt chart (small workloads only; implies -trace)")
		compare  = flag.Bool("compare", false, "run every policy on the same workload")
		invar    = flag.Bool("invariants", false, "validate the decision-event stream after the run (all policies); asets-family policies additionally audit ASETS* queue invariants at every decision point (O(n) per decision)")
		servers  = flag.Int("servers", 1, "number of identical backend servers")
		users    = flag.Int("users", 0, "closed-loop mode: simulate this many interactive sessions instead of Table I arrivals")
		patience = flag.Float64("patience", 0, "closed-loop page-abandonment bound (0 = off)")
	)
	report := flag.Bool("report", false, "print a post-run markdown report: per-class percentiles, alert timeline, error-budget spend, worst offenders")
	rob := cliflag.AddRobustness(flag.CommandLine)
	cont := cliflag.AddContention(flag.CommandLine)
	sloFlags := cliflag.AddSLO(flag.CommandLine)
	flag.Parse()

	// Validate the robustness and contention flags before any work, so a
	// typo is a crisp CLI error rather than a mid-run failure.
	if err := rob.Load(); err != nil {
		cliflag.Fatal("asetssim", err)
	}
	if err := cont.Load(); err != nil {
		cliflag.Fatal("asetssim", err)
	}
	if err := sloFlags.Load(); err != nil {
		cliflag.Fatal("asetssim", err)
	}
	bal, err := balanceOption(*policy, *balTime, *balCount, *compare, *users)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asetssim: %v\n", err)
		os.Exit(2)
	}

	if *users > 0 {
		if rob.Active() {
			fmt.Fprintln(os.Stderr, "asetssim: -faults/-admit apply to open-loop runs; the closed-loop simulator (-users) does not support them")
			os.Exit(2)
		}
		if cont.Active() {
			fmt.Fprintln(os.Stderr, "asetssim: -keys applies to open-loop runs; the closed-loop simulator (-users) does not support it")
			os.Exit(2)
		}
		if sloFlags.Active() || *report {
			fmt.Fprintln(os.Stderr, "asetssim: -slo/-report apply to open-loop runs; the closed-loop simulator (-users) does not support them")
			os.Exit(2)
		}
		runClosedLoop(*users, wl.Util, wl.Seed, *policy, *patience)
		return
	}
	if *load != "" && cont.Active() {
		fmt.Fprintln(os.Stderr, "asetssim: -keys draws read/write sets at generation time; it does not compose with -load (regenerate instead)")
		os.Exit(2)
	}

	cfg := wl.Config()
	cfg.Contention = cont.Keyspace()
	set, saved, err := buildWorkload(*load, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asetssim: %v\n", err)
		os.Exit(1)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err == nil {
			err = workload.WriteJSON(f, set, saved)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "asetssim: saving workload: %v\n", err)
			os.Exit(1)
		}
	}

	wantTrace := *doTrace || *analyze || *gantt
	outs := obsOutputs{eventsPath: *events, spansPath: *spans, timelinePath: *timeline, validate: *invar, report: *report, slo: sloFlags}

	if *compare {
		if outs.eventsPath != "" || outs.spansPath != "" || outs.timelinePath != "" {
			fmt.Fprintln(os.Stderr, "asetssim: -events/-spans/-timeline export a single run; drop -compare")
			os.Exit(2)
		}
		for _, p := range cliflag.Policies {
			// With -invariants, every entry gets its decision-event stream
			// validated; the asets-family entries are additionally audited at
			// each decision point (the baselines have no ASETS* state).
			s := p.New()
			if *invar {
				s = wrapInvariants(s)
			}
			runOne(set, s, *servers, wantTrace, *analyze, *gantt, obsOutputs{validate: *invar}, rob)
		}
		return
	}

	factory, ok := cliflag.LookupPolicy(*policy)
	if !ok {
		fmt.Fprintf(os.Stderr, "asetssim: unknown policy %q (choose from %s)\n", *policy, cliflag.PolicyNames())
		os.Exit(2)
	}
	s := factory()
	if bal != nil {
		s = core.New(bal)
	}
	if *invar {
		s = wrapInvariants(s)
	}
	runOne(set, s, *servers, wantTrace, *analyze, *gantt, outs, rob)
}

// balanceOption returns the balance-aware aging option that -bal-time or
// -bal-count selects, nil when both are zero. The flags age plain ASETS* in
// one open-loop run, so it rejects them with any other -policy, with
// -compare or -users, together, or with a negative or non-finite rate.
func balanceOption(policy string, balTime, balCount float64, compare bool, users int) (core.Option, error) {
	for _, f := range []struct {
		name string
		rate float64
	}{{"-bal-time", balTime}, {"-bal-count", balCount}} {
		if !(f.rate >= 0) || math.IsInf(f.rate, 1) {
			return nil, fmt.Errorf("%s %v must be a finite non-negative rate", f.name, f.rate)
		}
	}
	if balTime == 0 && balCount == 0 {
		return nil, nil
	}
	switch {
	case balTime > 0 && balCount > 0:
		return nil, fmt.Errorf("-bal-time and -bal-count select different aging modes; give one")
	case compare:
		return nil, fmt.Errorf("-bal-time/-bal-count age one asets run; drop -compare")
	case users > 0:
		return nil, fmt.Errorf("-bal-time/-bal-count apply to open-loop runs; the closed-loop simulator (-users) does not support them")
	case policy != "asets":
		return nil, fmt.Errorf("-bal-time/-bal-count age plain ASETS*; use -policy asets, not %q", policy)
	}
	if balTime > 0 {
		return core.WithTimeActivation(balTime), nil
	}
	return core.WithCountActivation(balCount), nil
}

// wrapInvariants adds per-decision invariant auditing when s is an
// asets-family scheduler, and returns s unchanged otherwise.
func wrapInvariants(s sched.Scheduler) sched.Scheduler {
	if star, ok := s.(*core.ASETSStar); ok {
		return core.NewChecked(star)
	}
	return s
}

// buildWorkload loads the workload JSON at load, or generates cfg when load
// is empty, and returns the set with the configuration that made it (the
// file's embedded one, which may be nil, when loaded).
func buildWorkload(load string, cfg workload.Config) (*txn.Set, *workload.Config, error) {
	if load == "" {
		set, err := workload.Generate(cfg)
		return set, &cfg, err
	}
	f, err := os.Open(load)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return workload.ReadJSON(f)
}

// obsOutputs names the optional observability exports and checks of a run.
type obsOutputs struct {
	eventsPath   string       // JSONL decision-event stream
	spansPath    string       // JSONL per-transaction causal spans
	timelinePath string       // Chrome trace-event timeline (implies tracing)
	validate     bool         // run obs.Validate over the collected event stream
	report       bool         // render the post-run markdown report
	slo          *cliflag.SLO // SLO engine flags (nil-safe: inactive when unset)
}

func runOne(set *txn.Set, s sched.Scheduler, servers int, doTrace, analyze, gantt bool, outs obsOutputs, rob *cliflag.Robustness) {
	var rec *trace.Recorder
	cfg := sim.Config{Servers: servers, Faults: rob.Plan(), Admit: rob.Controller()}
	if outs.slo != nil {
		// A fresh config per run: -compare must not share engine state.
		cfg.SLO = outs.slo.Config()
	}
	if doTrace || outs.timelinePath != "" {
		rec = &trace.Recorder{}
		cfg.Recorder = rec
	}

	// Wire the requested event exports into one sink: the JSONL writer
	// streams to disk as the run progresses, the collector feeds the
	// timeline exporter and the event validator afterwards, and the span
	// builder folds the stream into per-transaction causal spans.
	var (
		sinks      []obs.Sink
		jw         *obs.JSONLWriter
		eventsFile *os.File
		col        *obs.Collector
		spb        *obs.SpanBuilder
	)
	if outs.eventsPath != "" {
		f, err := os.Create(outs.eventsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asetssim: %v\n", err)
			os.Exit(1)
		}
		eventsFile = f
		jw = obs.NewJSONLWriter(f)
		sinks = append(sinks, jw)
	}
	if outs.timelinePath != "" || outs.validate || outs.report {
		col = &obs.Collector{}
		sinks = append(sinks, col)
	}
	if outs.spansPath != "" || outs.timelinePath != "" {
		spb = obs.NewSpanBuilder(set, obs.SpanOptions{})
		sinks = append(sinks, spb)
	}
	if len(sinks) > 0 {
		cfg.Sink = obs.Tee(sinks...)
	}

	sm := sim.New(cfg)
	summary, err := sm.Run(set, s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asetssim: %s: %v\n", s.Name(), err)
		os.Exit(1)
	}

	if jw != nil {
		err := jw.Flush()
		if cerr := eventsFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "asetssim: writing %s: %v\n", outs.eventsPath, err)
			os.Exit(1)
		}
		fmt.Printf("  events: wrote %s\n", outs.eventsPath)
	}
	if outs.validate {
		evs := col.Events()
		if err := obs.Validate(evs); err != nil {
			fmt.Fprintf(os.Stderr, "asetssim: %s: INVALID EVENT STREAM: %v\n", s.Name(), err)
			os.Exit(1)
		}
		fmt.Printf("  events: %d validated OK\n", len(evs))
	}
	if outs.spansPath != "" {
		f, err := os.Create(outs.spansPath)
		if err == nil {
			err = obs.WriteSpans(f, spb.Spans())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "asetssim: writing %s: %v\n", outs.spansPath, err)
			os.Exit(1)
		}
		fmt.Printf("  spans: wrote %s (%d spans)\n", outs.spansPath, len(spb.Spans()))
	}
	if outs.timelinePath != "" {
		f, err := os.Create(outs.timelinePath)
		if err == nil {
			err = obs.WriteTimelineFlows(f, rec.Slices, col.Events(), spb.Spans())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "asetssim: writing %s: %v\n", outs.timelinePath, err)
			os.Exit(1)
		}
		fmt.Printf("  timeline: wrote %s (load in Perfetto / chrome://tracing)\n", outs.timelinePath)
	}
	printSummary(s.Name(), summary)
	if st := sm.SLOState(); st != nil {
		fmt.Printf("  slo: alerts fired=%d resolved=%d active=%d worstBurn=%.2f budgetRemaining=%.0f%%\n",
			st.Fires, st.Resolves, st.ActiveAlerts, st.FastBurn, 100*st.BudgetRemaining)
	}
	if rob.Active() {
		fmt.Printf("  faults: admitted=%d shed=%d aborts=%d restarts=%d stalls=%d\n",
			summary.N, summary.Shed, summary.Aborts, summary.Restarts, summary.Stalls)
	}
	if set.Keyed() {
		fmt.Printf("  contention: validate_fails=%d\n", summary.ValidateFails)
	}
	if c, ok := s.(*core.Checked); ok {
		fmt.Printf("  invariants: %d decision points audited, 0 violations\n", c.Checks())
	}
	if rec != nil {
		if rob.Active() {
			// Aborted work re-executes and shed transactions never run, so
			// the slice-sum validation's invariants do not hold under a
			// fault plan or an admission controller.
			fmt.Printf("  schedule: %d slices, %d preemptions (validation skipped under -faults/-admit: re-executed and shed work break slice-sum invariants)\n",
				len(rec.Slices), rec.Preemptions(set))
		} else {
			if err := rec.ValidateN(set, servers); err != nil {
				fmt.Fprintf(os.Stderr, "asetssim: %s: INVALID SCHEDULE: %v\n", s.Name(), err)
				os.Exit(1)
			}
			fmt.Printf("  schedule: %d slices, %d preemptions, validated OK\n",
				len(rec.Slices), rec.Preemptions(set))
		}
	}
	if analyze {
		printAnalysis(set, rec)
	}
	if gantt {
		fmt.Print(analysis.Gantt(set, rec, 100))
	}
	if outs.report {
		opts := report.RunOptions{Set: set, Title: "Run report: " + s.Name()}
		if outs.slo != nil {
			if sc := outs.slo.Config(); sc != nil {
				opts.Spec = &sc.Spec
			}
		}
		fmt.Println()
		fmt.Print(report.GenerateRun(col.Events(), opts).Render())
	}
}

// printAnalysis renders the post-run diagnostics: per-class tardiness, the
// dependency/queueing/service wait decomposition, busy-period structure and
// a tardiness histogram.
func printAnalysis(set *txn.Set, rec *trace.Recorder) {
	fmt.Println("  class breakdown:")
	for _, c := range analysis.ByDependency(set) {
		fmt.Printf("    %-12s n=%-5d avgTard=%-9.3f maxTard=%-9.3f miss=%.1f%%\n",
			c.Class, c.N, c.AvgTardiness, c.MaxTardiness, 100*c.MissRatio)
	}
	dep, q, svc := analysis.SummarizeWaits(analysis.Waits(set, rec))
	fmt.Printf("  mean response decomposition: depWait=%.3f queueing=%.3f service=%.3f\n", dep, q, svc)
	periods := analysis.Periods(rec)
	busy := 0
	for _, p := range periods {
		if p.Busy {
			busy++
		}
	}
	fmt.Printf("  busy periods: %d (of %d periods)\n", busy, len(periods))
	h := metrics.NewHistogram()
	for _, t := range set.Txns {
		h.Add(t.Tardiness())
	}
	fmt.Println("  tardiness histogram:")
	for _, line := range strings.Split(strings.TrimRight(h.String(), "\n"), "\n") {
		fmt.Println("    " + line)
	}
}

func printSummary(name string, s *metrics.Summary) {
	fmt.Printf("%-22s avgTard=%-10.3f avgWTard=%-10.3f maxWTard=%-10.3f miss=%5.1f%%  resp=%-9.3f p95=%-9.3f util=%.3f\n",
		name, s.AvgTardiness, s.AvgWeightedTardiness, s.MaxWeightedTardiness,
		100*s.MissRatio, s.AvgResponseTime, s.TardinessP95, s.Utilization)
}

// runClosedLoop simulates interactive sessions (the introduction's users)
// and prints per-policy page statistics.
func runClosedLoop(users int, util float64, seed uint64, policy string, patience float64) {
	factory, ok := cliflag.LookupPolicy(policy)
	if !ok {
		fmt.Fprintf(os.Stderr, "asetssim: unknown policy %q\n", policy)
		os.Exit(2)
	}
	cfg := workload.DefaultSessions(users, util, seed)
	set, sessions, err := workload.GenerateSessions(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "asetssim: %v\n", err)
		os.Exit(1)
	}
	res, err := sim.New(sim.Config{Patience: patience}).RunClosedLoop(set, sessions, factory())
	if err != nil {
		fmt.Fprintf(os.Stderr, "asetssim: %v\n", err)
		os.Exit(1)
	}
	pages := 0
	var sumLat, maxLat float64
	for _, sess := range res.PageLatencies {
		for _, lat := range sess {
			pages++
			sumLat += lat
			if lat > maxLat {
				maxLat = lat
			}
		}
	}
	fmt.Printf("%-12s users=%d pages=%d avgPageLat=%.2f maxPageLat=%.2f avgTard=%.3f abandon=%.1f%%\n",
		factory().Name(), users, pages, sumLat/float64(pages), maxLat,
		res.Summary.AvgTardiness, 100*res.AbandonRate)
}
