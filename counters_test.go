package repro_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// streamCounters maps every /metrics *_total counter the decision stream
// feeds to the event it counts: a kind, and for the failover kind whether
// the detail is the terminal "lost". The map is written out here, apart
// from the code that wires the counters, so the test checks that code.
var streamCounters = map[string]struct {
	kind string
	lost bool
}{
	"asets_sched_arrivals_total":            {kind: "arrival"},
	"asets_sched_dispatches_total":          {kind: "dispatch"},
	"asets_sched_preemptions_total":         {kind: "preempt"},
	"asets_sched_completions_total":         {kind: "completion"},
	"asets_sched_deadline_misses_total":     {kind: "deadline_miss"},
	"asets_sched_aging_activations_total":   {kind: "aging"},
	"asets_sched_mode_switches_total":       {kind: "mode_switch"},
	"asets_sched_conflict_defers_total":     {kind: "conflict_defer"},
	"asets_fault_aborts_total":              {kind: "abort"},
	"asets_fault_restarts_total":            {kind: "restart"},
	"asets_fault_stalls_total":              {kind: "stall"},
	"asets_admit_shed_total":                {kind: "shed"},
	"asets_contention_validate_fails_total": {kind: "validate_fail"},
	"asets_cluster_routed_total":            {kind: "route"},
	"asets_cluster_failovers_total":         {kind: "failover"},
	"asets_cluster_lost_total":              {kind: "failover", lost: true},
	"asets_cluster_ejections_total":         {kind: "eject"},
	"asets_cluster_recoveries_total":        {kind: "recover"},
}

// The counter families each layer registers, exactly when it is wired.
var (
	schedFamily = []string{
		"asets_sched_aging_activations_total", "asets_sched_arrivals_total",
		"asets_sched_completions_total", "asets_sched_conflict_defers_total",
		"asets_sched_deadline_misses_total", "asets_sched_dispatches_total",
		"asets_sched_mode_switches_total", "asets_sched_preemptions_total",
	}
	faultFamily = []string{
		"asets_admit_shed_total", "asets_fault_aborts_total",
		"asets_fault_restarts_total", "asets_fault_stalls_total",
	}
	contentionFamily = []string{"asets_contention_validate_fails_total"}
	clusterFamily    = []string{
		"asets_cluster_ejections_total", "asets_cluster_failovers_total",
		"asets_cluster_lost_total", "asets_cluster_recoveries_total",
		"asets_cluster_routed_total",
	}
)

// countStream folds a collected stream into the counts streamCounters
// names.
func countStream(events []obs.Event) map[string]uint64 {
	out := make(map[string]uint64)
	for _, ev := range events {
		for name, c := range streamCounters {
			if ev.Kind.String() == c.kind && (ev.Kind != obs.KindFailover || c.lost == (ev.Detail == "lost")) {
				out[name]++
			}
		}
	}
	return out
}

// totals returns the registry's *_total counters by name.
func totals(reg *obs.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		if strings.HasSuffix(c.Name, "_total") {
			out[c.Name] = c.Value
		}
	}
	return out
}

// TestCountersMatchStream: on every engine and layer that feeds /metrics,
// each *_total counter equals the number of events of its kind in the
// collected stream, each run registers exactly the counter families of the
// layers it wires, and a run with a registry but no sink counts the same.
func TestCountersMatchStream(t *testing.T) {
	// Each run builds its own workload: the fault plan's bursts and the
	// cluster's losses mutate the set.
	faulty := func(sink obs.Sink, reg *obs.Registry) error {
		set := workload.MustGenerate(workload.Default(1.2, 0xC0C0).WithN(300).WithWeights().WithWorkflows(4, 1))
		plan := &fault.Plan{
			Seed: 0xFA117, AbortProb: 0.2, MaxRestarts: 3, BackoffBase: 0.5, BackoffCap: 4,
			Stalls: []fault.Window{{Start: 30, Duration: 4}, {Start: 90, Duration: 3, Kind: fault.Crash}},
			Bursts: []fault.Burst{{At: 60, Width: 8}},
		}
		cfg := sim.Config{Sink: sink, Metrics: reg, Faults: plan, Admit: admit.Feasibility{}}
		_, err := sim.New(cfg).Run(set, core.New(core.WithTimeActivation(0.05)))
		return err
	}
	contended := func(servers int) func(obs.Sink, *obs.Registry) error {
		return func(sink obs.Sink, reg *obs.Registry) error {
			set := workload.MustGenerate(workload.Default(0.85*float64(servers), 42).WithN(250).
				WithContention(contention.Keyspace{Keys: 32, Alpha: 0.9, Reads: 4, Writes: 2}))
			cfg := sim.Config{Servers: servers, Sink: sink, Metrics: reg}
			_, err := sim.New(cfg).Run(set, contention.NewDeferring(core.New(), 0))
			return err
		}
	}
	fleet := func(sink obs.Sink, reg *obs.Registry) error {
		cfg := workload.Default(3.2, 0xC1A57E12)
		cfg.N = 400
		res, err := cluster.New(cluster.Config{
			Instances:    4,
			Policy:       cluster.HealthWeighted{},
			NewScheduler: sched.NewSRPT,
			NewAdmit:     func() admit.Controller { return admit.Feasibility{} },
			Faults: []*fault.Plan{
				{Seed: 7, AbortProb: 0.25, MaxRestarts: 2, BackoffBase: 0.5, BackoffCap: 4},
				{Stalls: []fault.Window{{Start: 40, Duration: 8, Kind: fault.Crash}}},
				{Stalls: []fault.Window{{Start: 41, Duration: 6, Kind: fault.Crash}, {Start: 70, Duration: 5}}},
				nil,
			},
			// A budget of one fails some work over and loses the work a
			// second crash catches.
			Retry:            cluster.Retry{Budget: 1, BackoffBase: 0.5, BackoffCap: 2},
			RecoveryCooldown: 2,
			Sink:             sink,
			Metrics:          reg,
		}).Run(workload.MustGenerate(cfg))
		if err == nil && (res.Failovers == 0 || res.Lost == 0) {
			err = fmt.Errorf("fleet fixture made %d failovers and %d losses, want both", res.Failovers, res.Lost)
		}
		return err
	}
	cases := []struct {
		name     string
		run      func(obs.Sink, *obs.Registry) error
		families [][]string
		want     []string // kinds the fixture must produce
	}{
		{"sim-faults-admission", faulty, [][]string{schedFamily, faultFamily},
			[]string{"abort", "restart", "stall", "shed", "preempt", "aging", "mode_switch", "deadline_miss"}},
		{"contended-S1", contended(1), [][]string{schedFamily, contentionFamily},
			[]string{"conflict_defer", "preempt"}},
		{"contended-S4", contended(4), [][]string{schedFamily, contentionFamily},
			[]string{"validate_fail", "conflict_defer"}},
		{"cluster", fleet, [][]string{schedFamily, faultFamily, clusterFamily},
			[]string{"route", "failover", "eject", "recover", "abort", "restart", "stall", "shed"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			col := &obs.Collector{}
			reg := obs.NewRegistry()
			if err := c.run(col, reg); err != nil {
				t.Fatal(err)
			}
			got, fold := totals(reg), countStream(col.Events())

			want := slices.Concat(c.families...)
			slices.Sort(want)
			var names []string
			for name := range got {
				names = append(names, name)
			}
			slices.Sort(names)
			if !slices.Equal(names, want) {
				t.Fatalf("registered counters\n %v\nwant\n %v", names, want)
			}
			for _, name := range names {
				if got[name] != fold[name] {
					t.Errorf("%s = %d, stream has %d %s events", name, got[name], fold[name], streamCounters[name].kind)
				}
			}
			seen := make(map[string]bool)
			for _, ev := range col.Events() {
				seen[ev.Kind.String()] = true
			}
			for _, k := range c.want {
				if !seen[k] {
					t.Errorf("fixture produced no %s event", k)
				}
			}

			bare := obs.NewRegistry()
			if err := c.run(nil, bare); err != nil {
				t.Fatal(err)
			}
			if only := totals(bare); !maps.Equal(only, got) {
				t.Errorf("registry-only run counted %v, with a sink %v", only, got)
			}
		})
	}
}
