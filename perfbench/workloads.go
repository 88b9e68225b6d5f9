package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Workload sizes at scale 1. Each engine run's transaction count is fixed,
// so its per-transaction figures do not drift with the measuring time, and
// every engine run completes at least 10k transactions (ten beyond the
// p99.9). The single-engine workloads hold several input sets drawn from
// the seed and the timed runs cycle through them: the simulated outcomes
// pool every set, which keeps their spread across seeds small.
const (
	table1N    = 200_000
	table1Sets = 4
	liveN      = 30_000
	liveSets   = 4
	fleetN     = 50_000
	fleetSets  = 4
	sweepJobN  = 2_500 // per job; a pool run has 2 x sweepSeeds jobs
	sweepSeeds = 16
)

// engineRun is one prepared engine run: exec is the timed phase, collect
// reads the outcome afterwards.
type engineRun struct {
	n       int // transactions submitted
	exec    func() error
	collect func() (*result, error)
}

// bench is one workload of the benchmark.
type bench interface {
	// generate builds the workload's input sets from the seed.
	generate(tr *tracer) error
	// inputs is the number of input sets; engine runs cycle through them.
	inputs() int
	// modes is the number of configurations the traced run times; mode 0
	// is the benchmarked one, the others switch layers built inside the
	// engine off so their self time can be told apart.
	modes() int
	// prepare builds the engine and its sinks for one run of input in. A
	// non-nil tracer wraps every layer boundary; events attaches an
	// event-stream digest.
	prepare(tr *tracer, in, mode int, events bool) *engineRun
	// check runs the workload's own output checks against the reference
	// outcomes, outside the timed phase.
	check(refs []*result) error
}

var workloadNames = []string{"table1-txn", "live-replay", "fleet-failover", "contention-sweep"}

func newBench(name string, seed uint64, scale float64) (bench, error) {
	switch name {
	case "table1-txn":
		return &table1{sets: sets{seed: seed, n: scaled(table1N, scale), count: table1Sets}}, nil
	case "live-replay":
		return &liveReplay{sets: sets{seed: seed, n: scaled(liveN, scale), count: liveSets}}, nil
	case "fleet-failover":
		return &fleet{sets: sets{seed: seed, n: scaled(fleetN, scale), count: fleetSets}}, nil
	case "contention-sweep":
		return &sweep{seed: seed, jobN: scaled(sweepJobN, scale)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m > 50 {
		return m
	}
	return 50
}

// sets holds the input sets of a single-engine workload; set i is drawn
// from rng.Derive(seed, i).
type sets struct {
	seed  uint64
	n     int
	count int
	all   []*txn.Set
}

func (s *sets) inputs() int { return s.count }

func (s *sets) build(tr *tracer, spec func(seed uint64) workload.Spec) error {
	s.all = make([]*txn.Set, s.count)
	for i := range s.all {
		tr.begin(lWorkload, opBuild, -1)
		set, err := spec(rng.Derive(s.seed, uint64(i))).WithN(s.n).Build()
		tr.end()
		if err != nil {
			return err
		}
		s.all[i] = set
	}
	return nil
}

// table1 is the paper's Table I workload under transaction-level ASETS*:
// bare single-server sim.Runs with no optional layer.
type table1 struct{ sets }

func (w *table1) modes() int { return 1 }

func (w *table1) generate(tr *tracer) error {
	return w.build(tr, func(seed uint64) workload.Spec { return workload.NewSpec(0.95, seed) })
}

func (w *table1) prepare(tr *tracer, in, _ int, events bool) *engineRun {
	return simRun(tr, w.all[in], sim.Config{}, events)
}

// simRun prepares one single-server ASETS* run of set.
func simRun(tr *tracer, set *txn.Set, cfg sim.Config, events bool) *engineRun {
	var dig *digestSink
	if events {
		dig = newDigestSink()
		cfg.Sink = dig
	}
	eng := sim.New(cfg)
	s := traceSched(core.New(), tr, lCore)
	var sum *metrics.Summary
	return &engineRun{
		n: set.Len(),
		exec: func() (err error) {
			tr.engine(lSim)
			sum, err = eng.Run(set, s)
			tr.end()
			return err
		},
		collect: func() (*result, error) {
			r := outcome(set)
			r.events = dig.sum()
			if sum.N != r.completed {
				return nil, fmt.Errorf("summary counts %d completions, the set %d", sum.N, r.completed)
			}
			r.seal()
			return r, nil
		},
	}
}

// check replays the first set with the schedule recorder and runs the
// schedule checker over it.
func (w *table1) check(refs []*result) error {
	rec := &trace.Recorder{}
	got, err := once(simRun(nil, w.all[0], sim.Config{Recorder: rec}, false))
	if err != nil {
		return err
	}
	if got.digest != refs[0].digest {
		return fmt.Errorf("recorded run digest %016x, reference %016x", got.digest, refs[0].digest)
	}
	if err := rec.Validate(w.all[0]); err != nil {
		return fmt.Errorf("schedule checker: %w", err)
	}
	return nil
}

// liveReplay is what asetsweb runs: the executor on a FakeClock replaying
// weighted workflow chains under ASETS*, with the server's observability
// wiring.
type liveReplay struct{ sets }

// Live-replay modes of the traced run.
const (
	liveFull  = iota // the server's wiring: instrumentation, SLO, ring, spans
	liveNoSLO        // without the SLO engine
	liveBare         // without any sink or registry: no instrumentation
)

func (w *liveReplay) modes() int { return 3 }

func (w *liveReplay) generate(tr *tracer) error {
	return w.build(tr, func(seed uint64) workload.Spec {
		return workload.NewSpec(0.8, seed).WithWeights().WithWorkflows(5, 1)
	})
}

func (w *liveReplay) prepare(tr *tracer, in, mode int, events bool) *engineRun {
	return w.replay(tr, w.all[in], mode, events, nil)
}

// replay prepares one executor run; a non-nil collector keeps the stream.
func (w *liveReplay) replay(tr *tracer, set *txn.Set, mode int, events bool, col *obs.Collector) *engineRun {
	var clk clock = executor.NewFakeClock(time.Unix(0, 0))
	if tr != nil {
		clk = &tracedClock{inner: clk, tr: tr}
	}
	opts := executor.Options{Clock: clk}
	var dig *digestSink
	if mode != liveBare {
		reg := obs.NewRegistry()
		ring := obs.NewRing(1024)
		spans := obs.NewSpanBuilder(set, obs.SpanOptions{Metrics: reg, Window: 100, Keep: 1024})
		sinks := []obs.Sink{traceSink(ring, tr, lRing, true), traceSink(spans, tr, lSpan, false)}
		if events {
			dig = newDigestSink()
			sinks = append(sinks, dig)
		}
		if col != nil {
			sinks = append(sinks, col)
		}
		opts.Sink, opts.Metrics = obs.Tee(sinks...), reg
		if mode == liveFull {
			opts.SLO = &slo.Config{Spec: slo.DefaultSpec(), Window: 100}
		}
	}
	ex := executor.New(traceSched(core.New(), tr, lCore), set, opts)
	return &engineRun{
		n: set.Len(),
		exec: func() error {
			tr.engine(lExecutor)
			_, err := ex.Run(context.Background())
			tr.end()
			return err
		},
		collect: func() (*result, error) {
			r := outcome(set)
			r.events = dig.sum()
			if st := ex.Stats(); st.Completed != r.completed || st.Misses != r.misses {
				return nil, fmt.Errorf("executor stats %d completed / %d misses, the set %d / %d", st.Completed, st.Misses, r.completed, r.misses)
			}
			r.seal()
			return r, nil
		},
	}
}

// check replays the first set with the full stream kept and validates it,
// then runs sim.Run on the same set: the executor's summary must equal the
// simulator's.
func (w *liveReplay) check(refs []*result) error {
	set := w.all[0]
	col := &obs.Collector{}
	got, err := once(w.replay(nil, set, liveFull, false, col))
	if err != nil {
		return err
	}
	if got.digest != refs[0].digest {
		return fmt.Errorf("collected replay digest %016x, reference %016x", got.digest, refs[0].digest)
	}
	if err := obs.Validate(col.Events()); err != nil {
		return fmt.Errorf("event stream: %w", err)
	}
	exOut := outcome(set)
	// The executor keeps no busy-time counter; the simulator's is compared
	// through the finish times instead.
	exSum, err := metrics.Compute(set, 0)
	if err != nil {
		return err
	}
	simSum, err := sim.New(sim.Config{}).Run(set, core.New())
	if err != nil {
		return err
	}
	exSum.BusyTime, exSum.Utilization = simSum.BusyTime, simSum.Utilization
	if outcome(set).digest != exOut.digest || !reflect.DeepEqual(exSum, simSum) {
		return fmt.Errorf("executor summary %+v differs from sim.Run %+v", *exSum, *simSum)
	}
	return nil
}

// fleet is four cluster instances under weighted routing and ASETS*, with
// a slack-feasibility gate and a fixed number of crash windows.
type fleet struct {
	sets
	plans [][]*fault.Plan // per input set, one plan per instance
}

// Fleet shape: per-instance load, admission tolerance and crash windows.
const (
	fleetInstances = 4
	fleetLoad      = 0.78 // offered utilization per instance
	fleetTolerance = 10.0 // tardiness the feasibility gate accepts
	crashDuration  = 50.0
	crashCooldown  = 10.0
)

// crashAt places the crash windows at fixed fractions of the arrival
// horizon, two on instance 0 and two on instance 1: their count does not
// grow with the run, so neither does the O(n) rebuild cost per
// transaction.
var crashAt = [][]float64{{0.2, 0.6}, {0.4, 0.8}}

func (w *fleet) modes() int { return 1 }

func (w *fleet) generate(tr *tracer) error {
	err := w.build(tr, func(seed uint64) workload.Spec {
		spec := workload.NewSpec(fleetLoad*fleetInstances, seed).WithWeights()
		spec.KMax = 6
		return spec
	})
	if err != nil {
		return err
	}
	w.plans = make([][]*fault.Plan, len(w.all))
	for s, set := range w.all {
		horizon := 0.0
		for _, t := range set.Txns {
			horizon = max(horizon, t.Arrival)
		}
		w.plans[s] = make([]*fault.Plan, fleetInstances)
		for i, at := range crashAt {
			p := &fault.Plan{}
			for _, f := range at {
				p.Stalls = append(p.Stalls, fault.Window{Start: f * horizon, Duration: crashDuration, Kind: fault.Crash})
			}
			w.plans[s][i] = p
		}
	}
	return nil
}

func (w *fleet) prepare(tr *tracer, in, _ int, events bool) *engineRun {
	set := w.all[in]
	var policy cluster.Policy = cluster.HealthWeighted{}
	newAdmit := func() admit.Controller { return admit.Feasibility{Tolerance: fleetTolerance} }
	if tr != nil {
		policy = &tracedPolicy{inner: policy, tr: tr}
		newAdmit = func() admit.Controller {
			return &tracedAdmit{inner: admit.Feasibility{Tolerance: fleetTolerance}, tr: tr}
		}
	}
	cfg := cluster.Config{
		Instances:        fleetInstances,
		Policy:           policy,
		NewScheduler:     traceFactory(func() sched.Scheduler { return core.New() }, tr, fleetInstances),
		NewAdmit:         newAdmit,
		Faults:           w.plans[in],
		RecoveryCooldown: crashCooldown,
	}
	var dig *digestSink
	if events {
		dig = newDigestSink()
		cfg.Sink = dig
	}
	eng := cluster.New(cfg)
	var res *cluster.Result
	return &engineRun{
		n: set.Len(),
		exec: func() (err error) {
			tr.engine(lCluster)
			res, err = eng.Run(set)
			tr.end()
			return err
		},
		collect: func() (*result, error) {
			r := outcome(set)
			r.events = dig.sum()
			r.shed, r.lost, r.failovers = res.Shed, res.Lost, res.Failovers
			r.crashWindows = res.Summary.Stalls
			for _, in := range res.Instances {
				r.crashLost += in.CrashLost
			}
			if r.completed != res.Summary.N || r.refused != res.Shed+res.Lost || r.misses != res.Misses {
				return nil, fmt.Errorf("cluster result %d completed / %d refused / %d misses, the set %d / %d / %d",
					res.Summary.N, res.Shed+res.Lost, res.Misses, r.completed, r.refused, r.misses)
			}
			r.seal()
			return r, nil
		},
	}
}

// check asserts the fleet's fixed fault shape on every input: each
// configured crash window was entered and the gate shed some but not most
// arrivals.
func (w *fleet) check(refs []*result) error {
	want := 0
	for _, at := range crashAt {
		want += len(at)
	}
	for i, ref := range refs {
		if ref.crashWindows != want {
			return fmt.Errorf("input %d: %d crash windows entered, %d configured", i, ref.crashWindows, want)
		}
		if ref.shed == 0 || 2*ref.shed > ref.n {
			return fmt.Errorf("input %d: feasibility gate shed %d of %d arrivals", i, ref.shed, ref.n)
		}
	}
	return nil
}

// sweep is a runner.Pool sweep of short four-server contended sim jobs:
// Zipf keyspace x {ASETS*, CA-ASETS*} x seeds. One pool run is one engine
// run of the benchmark.
type sweep struct {
	seed uint64
	jobN int
	n    int // transactions per pool run
}

// Sweep shape: servers, offered utilization per server and the keyspace.
const (
	sweepServers = 4
	sweepLoad    = 0.85
)

var sweepKeys = contention.Keyspace{Keys: 4096, Alpha: 0.9, Reads: 4, Writes: 2}

func (w *sweep) modes() int  { return 1 }
func (w *sweep) inputs() int { return 1 }
func (w *sweep) jobs() int   { return 2 * sweepSeeds }

// jobSeed is job i's workload seed: both policies of a pair see one set.
func (w *sweep) jobSeed(i int) uint64 { return rng.Derive(w.seed, uint64(i/2)) }

func (w *sweep) spec(seed uint64) workload.Spec {
	return workload.NewSpec(sweepLoad*sweepServers, seed).WithN(w.jobN).WithContention(sweepKeys)
}

// generate builds every job's workload once; a pool run repeats that
// generation inside its workers.
func (w *sweep) generate(tr *tracer) error {
	w.n = 0
	for i := 0; i < w.jobs(); i++ {
		tr.begin(lWorkload, opBuild, -1)
		set, err := w.spec(w.jobSeed(i)).Build()
		tr.end()
		if err != nil {
			return err
		}
		w.n += set.Len()
	}
	return nil
}

func (w *sweep) prepare(tr *tracer, _, _ int, events bool) *engineRun {
	return w.pool(tr, events, runtime.NumCPU())
}

// pool prepares one pool run. Each job gets its own tracer (jobs run on
// several goroutines); they merge into tr in job order afterwards.
func (w *sweep) pool(tr *tracer, events bool, workers int) *engineRun {
	n := w.jobs()
	jobs := make([]runner.Job, n)
	results := make([]*result, n)
	tracers := make([]*tracer, n)
	for i := range jobs {
		i, seed, ca := i, w.jobSeed(i), i%2 == 1
		var jt *tracer
		if tr != nil {
			jt = newTracer(tr.keep / n)
			tracers[i] = jt
		}
		var dig *digestSink
		cfg := sim.Config{Servers: sweepServers}
		if events {
			dig = newDigestSink()
			cfg.Sink = dig
		}
		var start int64
		jobs[i] = runner.Job{
			Seed:   &seed,
			Config: cfg,
			Label:  fmt.Sprintf("seed %d ca=%v", seed, ca),
			Gen: func(seed uint64) (*txn.Set, error) {
				start = jt.now()
				jt.begin(lGen, opBuild, -1)
				set, err := w.spec(seed).Build()
				jt.end()
				return set, err
			},
			New: func() sched.Scheduler {
				s := traceSched(core.New(), jt, lCore)
				if ca {
					s = traceSched(contention.NewDeferring(s, 0), jt, lContention)
				}
				// The runner calls sim.Run right after New returns and
				// Post right after Run returns: that interval is the
				// job's sim span.
				jt.engine(lSim)
				return s
			},
			Post: func(set *txn.Set, sum *metrics.Summary) error {
				jt.end()
				r := outcome(set)
				r.events = dig.sum()
				r.validateFails, r.jobs = sum.ValidateFails, 1
				if ca {
					r.caTxns = set.Len()
				}
				if sum.N != r.completed {
					return fmt.Errorf("summary counts %d completions, the set %d", sum.N, r.completed)
				}
				r.seal()
				results[i] = r
				if jt != nil {
					jt.busyNs += jt.now() - start
				}
				return nil
			},
		}
	}
	pool := runner.Pool{Workers: workers}
	return &engineRun{
		n: w.n,
		exec: func() error {
			tr.engine(lRunner)
			_, err := pool.Run(context.Background(), jobs)
			tr.end()
			return err
		},
		collect: func() (*result, error) {
			total := &result{}
			for i, r := range results {
				if r == nil {
					return nil, fmt.Errorf("job %d has no result", i)
				}
				total.add(r)
				if tr != nil {
					tr.merge(tracers[i])
				}
			}
			return total, nil
		},
	}
}

// check reruns the sweep on one worker: serial and parallel pools must
// agree bit for bit, and validation must have rewound some incarnations.
func (w *sweep) check(refs []*result) error {
	got, err := once(w.pool(nil, false, 1))
	if err != nil {
		return err
	}
	if got.digest != refs[0].digest {
		return fmt.Errorf("serial pool digest %016x, parallel %016x", got.digest, refs[0].digest)
	}
	if refs[0].validateFails == 0 {
		return fmt.Errorf("no validation failures: the keyspace is not contended")
	}
	return nil
}
