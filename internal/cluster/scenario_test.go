package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/txn"
	"repro/internal/workload"
)

// scenario draws cluster run sc: fleet size, load, contention, per-instance
// fault plans (aborts, stalls, crashes), routing policy, scheduler,
// admission controller, retry budget, failover switch, cooldown and SLO.
func scenario(sc int, sink obs.Sink) (Config, *txn.Set) {
	scheds := []func() sched.Scheduler{
		sched.NewSRPT, sched.NewEDF, sched.NewFCFS, sched.NewLS, sched.NewHDF,
		func() sched.Scheduler { return core.New() },
		func() sched.Scheduler { return contention.NewDeferring(core.New(), 0) },
	}
	r := rng.New(uint64(sc) + 1000)
	ninst := 1 + r.Intn(4)
	util := 0.6 + r.Float64()*0.8
	spec := workload.NewSpec(util*float64(ninst), uint64(sc)).WithN(150 + r.Intn(150)).WithWeights()
	if r.Intn(4) == 0 {
		spec = spec.WithContention(contention.Keyspace{Keys: 32 + r.Intn(64), Alpha: 0.9, Reads: 3, Writes: 2, ReadOnlyProb: 0.2})
	}
	set := spec.MustBuild()
	horizon := 0.0
	for _, tx := range set.Txns {
		horizon = math.Max(horizon, tx.Arrival)
	}
	var plans []*fault.Plan
	if r.Intn(3) > 0 {
		plans = make([]*fault.Plan, ninst)
		for i := range plans {
			switch r.Intn(4) {
			case 0:
			case 1:
				plans[i] = &fault.Plan{Seed: uint64(i + sc), AbortProb: 0.2, MaxRestarts: 2, BackoffBase: 0.5, BackoffCap: 4}
			default:
				p := &fault.Plan{Seed: uint64(i + sc)}
				if r.Intn(2) == 0 {
					p.AbortProb, p.MaxRestarts, p.BackoffBase, p.BackoffCap = 0.15, 2, 0.5, 4
				}
				start := 0.0
				for w := 0; w < 1+r.Intn(3); w++ {
					start += r.Float64() * horizon / 3
					kind := fault.Stall
					if r.Intn(2) == 0 {
						kind = fault.Crash
					}
					d := 1 + r.Float64()*20
					p.Stalls = append(p.Stalls, fault.Window{Start: start, Duration: d, Kind: kind})
					start += d
				}
				plans[i] = p
			}
		}
	}
	policy := []Policy{NewRoundRobin(), LeastLoaded{}, SlackAware{}, HealthWeighted{}}[r.Intn(4)]
	newAdmit := []func() admit.Controller{
		nil,
		func() admit.Controller { return admit.QueueCap{Max: 6} },
		func() admit.Controller { return admit.Feasibility{Tolerance: 5} },
		func() admit.Controller { return admit.NewMissRatio(0.5, 0.25) },
	}[r.Intn(4)]
	var sc0 *slo.Config
	if r.Intn(3) == 0 {
		sc0 = &slo.Config{Spec: slo.DefaultSpec(), Window: 20}
	}
	return Config{
		Instances: ninst, Policy: policy, NewScheduler: scheds[r.Intn(len(scheds))], NewAdmit: newAdmit,
		Faults: plans, Retry: Retry{Budget: r.Intn(3), BackoffBase: 0.5, BackoffCap: 2}, NoFailover: r.Intn(6) == 0,
		RecoveryCooldown: float64(r.Intn(3)), Sink: sink, SLO: sc0, Metrics: obs.NewRegistry(),
	}, set
}

// goldenScenarios is the sha256 over the scenarios' outcome lines (Result
// JSON, per-transaction finish bits and shed marks, and the routed stream's
// fold digests). Regenerate only for an intended schedule change.
const goldenScenarios = "59bf715bdb7da938e94142e8a9af9df1cef8d3b472ca58c285fa8e2fffb01af2"

// TestClusterScenarios replays randomized fleets — every routing policy,
// fault mix, admission controller and SLO setting — and pins their outcomes
// and routed-stream folds across commits; every routed stream must also
// pass obs.Validate.
func TestClusterScenarios(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	h := sha256.New()
	for sc := 0; sc < n; sc++ {
		col := &obs.Collector{}
		cfg, set := scenario(sc, col)
		res, err := New(cfg).Run(set)
		if err != nil {
			t.Fatalf("scenario %d: %v", sc, err)
		}
		if err := obs.Validate(col.Events()); err != nil {
			t.Fatalf("scenario %d: routed stream: %v", sc, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var fin strings.Builder
		for _, tx := range set.Txns {
			fmt.Fprintf(&fin, "%x/%v ", math.Float64bits(tx.FinishTime), tx.Shed)
		}
		instants, txns := obstest.RoutedFolds(col.Events())
		fmt.Fprintf(h, "%d res %x fin %x folds %s %s\n", sc, sha256.Sum256(b), sha256.Sum256([]byte(fin.String())), instants[:12], txns[:12])
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); n == 200 && got != goldenScenarios {
		t.Errorf("scenario digest %s, pinned %s", got, goldenScenarios)
	}
}
