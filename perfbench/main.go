// Command perfbench is the repository's benchmark. It generates one of four
// workloads from a seed, drives the engines (sim, executor, cluster) and the
// runner pool through their public APIs, checks the outputs, and prints the
// end-to-end metrics; with --trace 1 it instead times every layer boundary
// from its own wrappers and prints the per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {"txn_per_s": {"value": 431210.5, "unit": "1/s"}, ...}}
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload table1-txn --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is kept out of tuning: later performance claims must hold
// on it too.
const heldOutSeed = 2

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 5

// minReps is the fewest timed engine runs a measurement takes.
const minReps = 3

// keepSpans bounds the spans the traced run retains verbatim.
const keepSpans = 1 << 16

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64 // multiplies every workload size: 1 is the benchmark, the tests shrink it
	spans    string  // traced span output path; empty writes none
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of timed engine runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace, o.scale = traceFlag == 1, 1
	if o.trace {
		o.spans = filepath.Join(".perfbench", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}
	out := bufio.NewWriter(os.Stdout)
	rep, err := run(o, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// machine stamps a result with the machine it ran on.
func machine(o options) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": model, "seed": o.seed, "held_out_seed": heldOutSeed, "workload": o.workload,
		"trace": o.trace, "seconds": o.seconds,
	}
}

// tally counts the engine runs of one invocation, attempted and failed.
type tally struct {
	attempted, failed int
	errs              []string
}

// note counts one engine run and records its failure, if any.
func (t *tally) note(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// rep is one timed engine run.
type rep struct {
	in            int // the input run
	digest        uint64
	n             int // transactions submitted
	dur           time.Duration
	slowdown      float64 // the machine's, measured just before the run
	mallocs, byts uint64
	numGC         uint32
	pauseNs       uint64
	gcCPU, allCPU float64
	heapGoal      uint64
}

func run(o options, out *bufio.Writer) (*report, error) {
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	stamp := machine(o)
	sb, _ := json.Marshal(stamp)
	fmt.Fprintf(out, "# machine %s\n", sb)

	// Set-up: input generation plus engine and sink construction, repeated
	// from scratch; setup_s is the median at the reference machine speed.
	// The previous repetition's inputs are dropped first, so set-up never
	// holds two copies of them.
	var b bench
	var setups, sds []float64
	for i := 0; i < setupReps; i++ {
		b = nil
		sds = append(sds, slowdown())
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = newBench(o.workload, o.seed, o.scale); err != nil {
			return nil, err
		}
		if err := b.generate(nil); err != nil {
			return nil, fmt.Errorf("generating %s: %w", o.workload, err)
		}
		b.prepare(nil, 0, 0, false)
		setups = append(setups, time.Since(start).Seconds())
	}
	setupS := median(setups) / median(sds)
	fmt.Fprintf(out, "# set-up: median %.4f s as measured, slowdown %.3f, %.4f s at reference speed\n", median(setups), median(sds), setupS)
	fmt.Fprintf(out, "# peak resident set after set-up %.1f MB\n", maxRSSMB())

	// The untraced timed runs come before the reference pass and the
	// checks, so max_rss_mb is the peak of set-up and the timed runs alone;
	// their outcomes are compared with the reference afterwards.
	var t tally
	var reps []rep
	var rss float64
	if !o.trace {
		reps = timed(b, o.seconds, &t)
		rss = maxRSSMB()
		fmt.Fprintf(out, "# peak resident set after the timed runs %.1f MB\n", rss)
	}

	// The reference pass: untimed, its outcomes are what every other run of
	// the same inputs must reproduce.
	refs := make([]*result, b.inputs())
	ref := &result{}
	for i := range refs {
		runtime.GC()
		r, err := once(b.prepare(nil, i, 0, false))
		if err == nil && o.scale == 1 {
			if p, _ := highestPercentile(r.completed); p < 99.9 {
				err = fmt.Errorf("input %d: %d completions leave fewer than ten beyond p99.9", i, r.completed)
			}
		}
		if err == nil {
			refs[i] = r
			ref.add(r)
			want, ok := referenceDigests[o.workload][o.seed]
			if last := i == len(refs)-1; last && ok && o.scale == 1 && want != ref.digest {
				err = fmt.Errorf("outcome digest %016x, recorded %016x", ref.digest, want)
			}
		}
		t.note("reference run", err)
		if err != nil {
			return finish(out, &t, nil)
		}
	}
	fmt.Fprintf(out, "# outcome digest %016x\n", ref.digest)
	runtime.GC()
	t.note("output checks", b.check(refs))

	if !o.trace {
		for _, rp := range reps {
			var err error
			if want := refs[rp.in].digest; rp.digest != want {
				err = fmt.Errorf("input %d: outcome digest %016x, reference %016x", rp.in, rp.digest, want)
			}
			t.note("timed run", err)
		}
		return finish(out, &t, endToEnd(out, ref, reps, setupS, rss))
	}
	return finish(out, &t, traced(out, o, stamp, b, ref, refs, &t))
}

// finish prints the failures and assembles the report.
func finish(out *bufio.Writer, t *tally, ms map[string]metric) (*report, error) {
	for _, e := range t.errs {
		fmt.Fprintf(out, "# FAILED %s\n", e)
	}
	ratio := 0.0
	if t.attempted > 0 {
		ratio = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(out, "# failed_run_ratio %g (%d failed of %d engine runs)\n", ratio, t.failed, t.attempted)
	if ms == nil {
		ms = map[string]metric{}
	}
	for name := range ms {
		if !validName(name) {
			return nil, fmt.Errorf("metric name %q is not valid", name)
		}
	}
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}, nil
}

// once runs one prepared engine run untimed.
func once(r *engineRun) (*result, error) {
	if err := r.exec(); err != nil {
		return nil, err
	}
	return r.collect()
}

// timed runs untraced engine runs for about seconds (at least minReps),
// cycling through the inputs, and measures the machine's slowdown before
// each. A run that errors is counted as failed and ends the phase; the
// others are counted when their outcomes are compared with the reference.
func timed(b bench, seconds float64, t *tally) []rep {
	var reps []rep
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(reps) < minReps || time.Now().Before(deadline) {
		in := len(reps) % b.inputs()
		sd := slowdown()
		rp, err := timedOnce(b.prepare(nil, in, 0, false), nil)
		if err != nil {
			t.note("timed run", err)
			break
		}
		rp.in, rp.slowdown = in, sd
		reps = append(reps, rp)
	}
	return reps
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/goal:bytes"},
}

// timedOnce times one engine run; a non-nil ref is the outcome it must
// reproduce.
func timedOnce(r *engineRun, ref *result) (rep, error) {
	// Collect the previous run's garbage first, so every run starts from
	// the same heap and the peak resident set does not depend on where the
	// collector happened to be.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(gcSamples)
	gc0, all0 := gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
	start := time.Now()
	err := r.exec()
	d := time.Since(start)
	metrics.Read(gcSamples)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return rep{}, err
	}
	res, err := r.collect()
	if err != nil {
		return rep{}, err
	}
	if ref != nil && res.digest != ref.digest {
		return rep{}, fmt.Errorf("outcome digest %016x, reference %016x", res.digest, ref.digest)
	}
	return rep{
		digest: res.digest, n: r.n, dur: d, mallocs: m1.Mallocs - m0.Mallocs, byts: m1.TotalAlloc - m0.TotalAlloc,
		numGC: m1.NumGC - m0.NumGC, pauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		gcCPU: gcSamples[0].Value.Float64() - gc0, allCPU: gcSamples[1].Value.Float64() - all0,
		heapGoal: gcSamples[2].Value.Uint64(),
	}, nil
}

// rates is each run's throughput in transactions per second.
func rates(reps []rep) []float64 {
	rs := make([]float64, len(reps))
	for i, r := range reps {
		rs[i] = float64(r.n) / r.dur.Seconds()
	}
	return rs
}

// txns is the transactions submitted over reps.
func txns(reps []rep) float64 {
	n := 0
	for _, r := range reps {
		n += r.n
	}
	return float64(n)
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// endToEnd computes the end-to-end metrics of an untraced run; ref pools
// the reference outcomes of every input.
func endToEnd(out *bufio.Writer, ref *result, reps []rep, setupS, rss float64) map[string]metric {
	if len(reps) == 0 {
		return nil
	}
	rs := rates(reps)
	sds := make([]float64, len(reps))
	for i, r := range reps {
		sds[i] = r.slowdown
	}
	sort.Float64s(rs)
	sort.Float64s(sds)
	// The median rate at the reference machine speed: the run and the
	// calibration medians are taken apart, so one slow kernel call does not
	// skew the run next to it.
	rate := median(rs) * median(sds)
	var mallocs, byts uint64
	for _, r := range reps {
		mallocs += r.mallocs
		byts += r.byts
	}
	resp := append([]float64(nil), ref.responses...)
	sort.Float64s(resp)
	fmt.Fprintf(out, "# %d timed runs: txn/s as measured min %.0f median %.0f max %.0f\n", len(rs), rs[0], median(rs), rs[len(rs)-1])
	fmt.Fprintf(out, "# slowdown (calibration time / %v): min %.3f median %.3f max %.3f\n", calibRef, sds[0], median(sds), sds[len(sds)-1])
	fmt.Fprintf(out, "# txn/s at reference speed: median %.0f\n", rate)
	if hp, ok := highestPercentile(len(rs)); ok && hp > 50 {
		fmt.Fprintf(out, "# txn/s p%g from the slow end: %.0f\n", hp, quantile(rs, 100-hp))
	}
	fmt.Fprintf(out, "# outcomes over %d transactions: %d completed, %d missed, %d refused\n",
		ref.n, ref.completed, ref.misses, ref.refused)
	return map[string]metric{
		"txn_per_s":              {rate, "1/s"},
		"allocs_per_txn":         {float64(mallocs) / txns(reps), "count"},
		"bytes_per_txn":          {float64(byts) / txns(reps), "B"},
		"max_rss_mb":             {rss, "MB"},
		"setup_s":                {setupS, "s"},
		"miss_ratio":             {float64(ref.misses+ref.refused) / float64(ref.n), "ratio"},
		"avg_weighted_tardiness": {ref.sumWT / float64(ref.completed), "simtime"},
		"response_p50":           {quantile(resp, 50), "simtime"},
		"response_p999":          {quantile(resp, 99.9), "simtime"},
	}
}

// traced runs the per-layer measurement: untraced and traced engine runs
// alternate for the measuring time, so the tracing overhead is measured on
// the same machine state, and every traced outcome must equal its
// reference.
func traced(out *bufio.Writer, o options, stamp map[string]any, b bench, ref *result, refs []*result, t *tally) map[string]metric {
	gen := newTracer(0)
	if gb, err := newBench(o.workload, o.seed, o.scale); err != nil || gb.generate(gen) != nil {
		t.note("traced generation", fmt.Errorf("generating %s failed", o.workload))
		return nil
	}

	// With an event digest attached, the traced stream must equal the
	// untraced one bit for bit.
	plain, err := once(b.prepare(nil, 0, 0, true))
	t.note("event digest run", err)
	if err == nil {
		tr, err := once(b.prepare(newTracer(0), 0, 0, true))
		if err == nil && (tr.digest != plain.digest || tr.events != plain.events) {
			err = fmt.Errorf("traced digests %016x/%016x, untraced %016x/%016x", tr.digest, tr.events, plain.digest, plain.events)
		}
		t.note("traced event digest run", err)
	}

	trs := make([]*tracer, b.modes())
	for m := range trs {
		trs[m] = newTracer(0)
	}
	trs[0].keep = keepSpans
	var plainReps []rep
	tracedReps := make([][]rep, len(trs))
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		in := i % len(refs)
		rp, err := timedOnce(b.prepare(nil, in, 0, false), refs[in])
		t.note("timed run", err)
		if err != nil {
			return nil
		}
		plainReps = append(plainReps, rp)
		for m, tr := range trs {
			rp, err := timedOnce(b.prepare(tr, in, m, false), refs[in])
			t.note("traced run", err)
			if err != nil {
				return nil
			}
			tracedReps[m] = append(tracedReps[m], rp)
		}
	}
	if o.spans != "" {
		err := os.MkdirAll(filepath.Dir(o.spans), 0o755)
		if err == nil {
			err = trs[0].writeSpans(o.spans, stamp)
		}
		if err != nil {
			fmt.Fprintf(out, "# span file not written: %v\n", err)
		} else {
			fmt.Fprintf(out, "# spans written to %s\n", o.spans)
		}
	}
	return perLayer(out, ref, len(refs), gen, trs, plainReps, tracedReps)
}

// perLayer derives the per-layer metrics from the traced runs' tracers;
// ref pools the reference outcomes of every input.
func perLayer(out *bufio.Writer, ref *result, inputs int, gen *tracer, trs []*tracer, plainReps []rep, tracedReps [][]rep) map[string]metric {
	n := float64(ref.n) // every input once
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tr := trs[0]
	tx := txns(tracedReps[0])
	runs := float64(len(tracedReps[0]))
	core := func(o op) stat { return tr.agg[lCore][o] }
	mean := func(s stat) float64 { return div(float64(s.total), float64(s.count)) }
	engineSelf := func(m int, l layer) float64 { return div(float64(trs[m].agg[l][opRun].self), txns(tracedReps[m])) }

	// Layers built inside the executor (instrumentation, SLO sink) are told
	// apart by switching them off: each one's self time is the change in
	// the executor's self time (its call minus the timed child calls).
	var execSelf, instrSelf, sloSelf float64
	if len(trs) > liveBare {
		execSelf = engineSelf(liveBare, lExecutor)
		instrSelf = engineSelf(liveNoSLO, lExecutor) - execSelf
		sloSelf = engineSelf(liveFull, lExecutor) - engineSelf(liveNoSLO, lExecutor)
	}
	ringCalls := tr.agg[lRing][opEmit].count + tr.agg[lRing][opBatch].count
	// runner.Pool runs at most one worker per job.
	workers := float64(min(runtime.NumCPU(), ref.jobs))
	runnerWall := float64(tr.agg[lRunner][opRun].total)

	var gcs, pause, gcCPU, allCPU float64
	var heapGoal uint64
	for _, r := range plainReps {
		gcs += float64(r.numGC)
		pause += float64(r.pauseNs)
		gcCPU += r.gcCPU
		allCPU += r.allCPU
		heapGoal = max(heapGoal, r.heapGoal)
	}
	plainTxns := txns(plainReps)
	overhead := median(rates(plainReps))/median(rates(tracedReps[0])) - 1
	fmt.Fprintf(out, "# tracing overhead %.1f%% (%d traced against %d untraced runs)\n", 100*overhead, len(tracedReps[0]), len(plainReps))

	const perTxn, ns = "ns/txn", "ns"
	return map[string]metric{
		"workload.build_ns_per_txn": {div(float64(gen.layer(lWorkload).total), n), perTxn},

		"sim.self_ns_per_txn":  {div(float64(tr.agg[lSim][opRun].self), tx), perTxn},
		"sim.setup_ns_per_run": {div(float64(tr.setupNs), float64(tr.agg[lSim][opRun].count)), ns},

		"core.init_ns_per_txn":             {div(float64(core(opInit).total), tx), perTxn},
		"core.arrival_ns":                  {mean(core(opArrival)), ns},
		"core.next_ns":                     {mean(core(opNext)), ns},
		"core.preempt_ns":                  {mean(core(opPreempt)), ns},
		"core.completion_ns":               {mean(core(opCompletion)), ns},
		"core.next_calls_per_txn":          {div(float64(core(opNext).count), tx), "1/txn"},
		"core.preempts_per_txn":            {div(float64(core(opPreempt).count-tr.handBacks), tx), "1/txn"},
		"core.self_ns_per_txn":             {div(float64(tr.layer(lCore).self), tx), perTxn},
		"sched.instrument_self_ns_per_txn": {instrSelf, perTxn},

		"obs.events_per_txn":     {div(float64(tr.events), tx), "1/txn"},
		"obs.sink_calls_per_txn": {div(float64(ringCalls), tx), "1/txn"},
		"obs.ring.ns_per_event":  {div(float64(tr.layer(lRing).total), float64(tr.events)), ns},
		"obs.span.ns_per_event":  {div(float64(tr.layer(lSpan).total), float64(tr.events)), ns},
		"slo.self_ns_per_txn":    {sloSelf, perTxn},
		"slo.alert_events":       {div(float64(tr.alerts), runs), "count"},

		"executor.self_ns_per_txn":     {execSelf, perTxn},
		"executor.clock_calls_per_txn": {div(float64(tr.layer(lClock).count), tx), "1/txn"},

		"admit.calls_per_txn": {div(float64(tr.agg[lAdmit][opAdmit].count), tx), "1/txn"},
		"admit.ns_per_call":   {mean(tr.agg[lAdmit][opAdmit]), ns},
		"admit.shed_ratio":    {div(float64(ref.shed), n), "ratio"},

		"fault.crash_windows":        {float64(ref.crashWindows) / float64(inputs), "count"},
		"fault.crash_losses_per_txn": {div(float64(ref.crashLost), n), "1/txn"},

		"cluster.picks_per_txn":      {div(float64(tr.agg[lPolicy][opPick].count), tx), "1/txn"},
		"cluster.pick_ns":            {mean(tr.agg[lPolicy][opPick]), ns},
		"cluster.failovers_per_txn":  {div(float64(ref.failovers), n), "1/txn"},
		"cluster.lost_ratio":         {div(float64(ref.lost), n), "ratio"},
		"cluster.rebuilds":           {div(float64(tr.rebuilds), runs), "count"},
		"cluster.rebuild_ns_per_txn": {div(float64(tr.rebuildNs), tx), perTxn},
		"cluster.self_ns_per_txn":    {div(float64(tr.agg[lCluster][opRun].self), tx), perTxn},

		"contention.defer_self_ns_per_txn":  {div(float64(tr.layer(lContention).self), float64(ref.caTxns)*runs), perTxn},
		"contention.probes_per_next":        {div(float64(tr.probes), float64(tr.agg[lContention][opNext].count)), "count"},
		"contention.validate_fails_per_txn": {div(float64(ref.validateFails), n), "1/txn"},
		"contention.commit_ratio":           {div(float64(ref.completed), float64(ref.completed+ref.validateFails)), "ratio"},

		"runner.parallel_efficiency": {div(float64(tr.busyNs), runnerWall*workers), "ratio"},
		"runner.gen_ns_per_txn":      {div(float64(tr.layer(lGen).total), tx), perTxn},
		"runner.jobs":                {float64(ref.jobs), "count"},

		"runtime.gc_cycles_per_mtxn": {div(gcs*1e6, plainTxns), "1/Mtxn"},
		"runtime.gc_pause_ms":        {div(pause/1e6, float64(len(plainReps))), "ms"},
		"runtime.gc_cpu_fraction":    {div(gcCPU, allCPU), "ratio"},
		"runtime.heap_peak_mb":       {float64(heapGoal) / (1 << 20), "MB"},

		"trace.overhead_ratio": {overhead, "ratio"},
	}
}
