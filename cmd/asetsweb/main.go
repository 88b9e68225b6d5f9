// Command asetsweb serves a live dashboard of an ASETS*-scheduled
// transaction stream: a Table I workload replays in (scaled) real time
// through the online executor while HTTP endpoints report queue state,
// tardiness and recent completions.
//
// Usage:
//
//	asetsweb -addr :8080 -policy asets -util 0.9 -scale 5ms
//	asetsweb -faults plan.json -admit slack:2   # fault injection + shedding
//	asetsweb -instances 4 -route weighted -wf-len 1   # fault-tolerant fleet
//	asetsweb -slo default -slo-window 50   # SLO burn-rate alerts on SSE + /metrics
//	asetsweb -pprof            # additionally serve /debug/pprof/
//	# then open http://localhost:8080/
//
// Endpoints: / (dashboard), /api/stats, /api/recent, /api/workload,
// POST /api/submit (admission gate: 202 or 429 + Retry-After),
// /metrics (Prometheus text), /events (recent decisions), /healthz
// (503 "degraded" while the admission controller degrades), and — with
// -pprof — the net/http/pprof profiling suite under /debug/pprof/.
//
// -faults names a fault.Plan JSON file (see docs/ROBUSTNESS.md for the
// format); -admit selects an admission controller (none, queue:N,
// slack[:tol], missratio[:enter,exit]). Both are validated before the
// server binds its port.
//
// -slo attaches the deterministic SLO alert engine (docs/OBSERVABILITY.md,
// "SLOs and alerting"): alert_fire/alert_resolve events ride /events and the
// SSE stream, per-class burn gauges land on /metrics, and — in fleet mode —
// GET /api/fleet serves the aggregate rollup while /healthz degrades when
// any instance burns its fast window.
//
// -instances N (N > 1) serves the fault-tolerant cluster tier instead of the
// single backend: the workload is routed (-route) across N fault domains,
// -faults crashes instance 0 while the survivors absorb the failover under
// the -retry-budget/-retry-backoff budget, /healthz answers per-instance
// circuit-breaker detail (?instance=K), and /metrics grows the
// asets_cluster_* failover counters. The fleet routes independent
// transactions only, so it requires -wf-len 1 (docs/ROBUSTNESS.md,
// "Cluster fault tolerance").
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admit"
	"repro/internal/cliflag"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// replay is the interface the serve/restart loop needs from either tier —
// the single-backend server.Server or the fleet's server.ClusterServer.
type replay interface {
	http.Handler
	Start(ctx context.Context) (<-chan struct{}, error)
	Wait(ctx context.Context) error
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		policy  = flag.String("policy", "asets", cliflag.PolicyNames())
		util    = flag.Float64("util", 0.9, "target utilization")
		n       = flag.Int("n", 1000, "number of transactions")
		seed    = cliflag.AddSeed(flag.CommandLine)
		wfLen   = flag.Int("wf-len", 5, "max workflow length (1 = independent)")
		weights = flag.Bool("weights", true, "draw weights from [1, 10]")
		scale   = flag.Duration("scale", 5*time.Millisecond, "wall-clock duration of one simulated time unit")
		loop    = flag.Bool("loop", true, "restart the replay with a fresh seed when it finishes")
		pprofOn = flag.Bool("pprof", false, "serve the net/http/pprof handlers under /debug/pprof/")
		logDet  = flag.Bool("log-deterministic", false, "drop wall-clock timestamps from log records (fixed-seed runs log byte-identically)")
	)
	rob := cliflag.AddRobustness(flag.CommandLine)
	cl := cliflag.AddCluster(flag.CommandLine)
	cont := cliflag.AddContention(flag.CommandLine)
	sloFlags := cliflag.AddSLO(flag.CommandLine)
	flag.Parse()

	// Structured logging shares field keys with the span/event exports, so a
	// txn=17 in a log line greps against the same key in span JSONL and SSE
	// frames; see internal/obs/log.go.
	logger := obs.NewLogger(os.Stderr, *logDet)

	factory, ok := cliflag.LookupPolicy(*policy)
	if !ok {
		logger.Error("unknown policy", obs.LogKeyPolicy, *policy)
		os.Exit(2)
	}

	// Validate fault/admission/cluster flags before binding the port, so a
	// typo is a crisp CLI error rather than a replay-goroutine failure.
	if err := rob.Load(); err != nil {
		cliflag.Fatal("asetsweb", err)
	}
	if err := cl.Load(); err != nil {
		cliflag.Fatal("asetsweb", err)
	}
	if err := cont.Load(); err != nil {
		cliflag.Fatal("asetsweb", err)
	}
	if err := sloFlags.Load(); err != nil {
		cliflag.Fatal("asetsweb", err)
	}
	if cont.Active() && *wfLen > 1 {
		cliflag.Fatal("asetsweb", errors.New("contention: read/write sets apply to independent transactions; pass -wf-len 1 with -keys"))
	}
	if cl.Active() {
		if *wfLen > 1 {
			cliflag.Fatal("asetsweb", errors.New("cluster: the fleet routes independent transactions only; pass -wf-len 1 with -instances > 1"))
		}
		if plan := rob.Plan(); plan != nil && len(plan.Bursts) > 0 {
			cliflag.Fatal("asetsweb", errors.New("cluster: flash-crowd bursts are a workload transform, not an instance fault; drop them from the -faults plan"))
		}
	}

	build := func(seed uint64) (replay, error) {
		// -util is per backend: the fleet draws Instances times the single
		// server's load so each fault domain sees the requested utilization.
		cfg := workload.Default(*util*float64(cl.Instances), seed)
		cfg.N = *n
		if *wfLen > 1 {
			cfg = cfg.WithWorkflows(*wfLen, 1)
		}
		if *weights {
			cfg = cfg.WithWeights()
		}
		set, err := workload.Spec{Config: cfg, Contention: cont.Keyspace()}.Build()
		if err != nil {
			return nil, err
		}
		// Controllers carry feedback state, so each replay gets a fresh one;
		// the fault plan is immutable and shared (each executor builds its
		// own injector from it).
		if !cl.Active() {
			return server.New(factory(), set, &cfg, executor.Options{
				TimeScale: *scale,
				Faults:    rob.Plan(),
				Admit:     rob.Controller(),
				SLO:       sloFlags.Config(),
			}), nil
		}
		// Fleet mode: the -faults plan crashes fault domain 0; the survivors
		// absorb its failover. Policies and controllers carry state, so each
		// replay builds fresh ones.
		var plans []*fault.Plan
		if rob.Plan() != nil {
			plans = make([]*fault.Plan, cl.Instances)
			plans[0] = rob.Plan()
		}
		var newAdmit func() admit.Controller
		if rob.Controller() != nil {
			newAdmit = rob.Controller
		}
		return server.NewCluster(cluster.Config{
			Instances:    cl.Instances,
			Policy:       cl.Policy(),
			NewScheduler: factory,
			NewAdmit:     newAdmit,
			Faults:       plans,
			Retry:        cl.Retry(),
			SLO:          sloFlags.Config(),
		}, set, cluster.FleetOptions{TimeScale: *scale}), nil
	}

	srv, err := build(*seed)
	if err != nil {
		logger.Error("building workload", obs.LogKeyErr, err.Error(), obs.LogKeySeed, *seed)
		os.Exit(1)
	}

	// ctx ends on SIGINT/SIGTERM; it cancels the replay and triggers the
	// HTTP server's graceful shutdown below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// current always points at the live server so the handler can swap in a
	// new replay when -loop is set.
	current := make(chan replay, 1)
	current <- srv
	var handler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := <-current
		current <- s
		s.ServeHTTP(w, r)
	})
	if *pprofOn {
		// Opt-in profiling: the handlers are registered on this private mux
		// only (importing net/http/pprof also touches http.DefaultServeMux,
		// but that mux is never served here).
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
	}

	// The replay loop is joined via loopDone before main returns. Each
	// replay runs under ctx, so cancellation both stops the executor and
	// unblocks Wait.
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s := srv
		nextSeed := *seed
		for {
			if _, err := s.Start(ctx); err != nil {
				logger.Error("starting replay", obs.LogKeyErr, err.Error())
				return
			}
			if err := s.Wait(ctx); err != nil {
				if ctx.Err() == nil {
					logger.Error("replay failed", obs.LogKeyErr, err.Error())
				}
				return
			}
			if !*loop || ctx.Err() != nil {
				return
			}
			nextSeed++
			ns, err := build(nextSeed)
			if err != nil {
				logger.Error("building workload", obs.LogKeyErr, err.Error(), obs.LogKeySeed, nextSeed)
				return
			}
			logger.Info("replay restarted", obs.LogKeySeed, nextSeed)
			<-current
			current <- ns
			s = ns
		}
	}()

	logger.Info("serving dashboard",
		obs.LogKeyPolicy, *policy, "n", *n, "util", *util, "addr", *addr, obs.LogKeySeed, *seed,
		"instances", cl.Instances, "route", cl.RouteSpec)

	// Hardened server config: slowloris-resistant header/body deadlines and
	// an idle cap for keep-alive connections. The longest handler is the
	// dashboard render, far under a second, so 10s of request budget is
	// generous; the POST body limit is enforced per-handler with
	// http.MaxBytesReader.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- hs.ListenAndServe()
	}()

	exitCode := 0
	select {
	case err := <-serveErr:
		// Listener failed outright (e.g. port in use).
		logger.Error("listener failed", obs.LogKeyErr, err.Error(), "addr", *addr)
		exitCode = 1
		stop()
	case <-ctx.Done():
		// Signal received: stop accepting requests, drain in-flight ones,
		// then join the serve goroutine.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := hs.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown failed", obs.LogKeyErr, err.Error())
			exitCode = 1
		}
		cancel()
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", obs.LogKeyErr, err.Error())
			exitCode = 1
		}
	}

	<-loopDone
	os.Exit(exitCode)
}
