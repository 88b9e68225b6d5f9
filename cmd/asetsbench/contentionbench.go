// Data-contention benchmark: replays the same Zipf-contended workloads under
// contention-blind ASETS* and its conflict-aware wrapper (CA-ASETS*) across a
// keyspace-size sweep — shrinking the keyspace raises the conflict rate — and
// records whether conflict-aware dispatch actually bought back the work that
// validation failures re-execute. The result is a small machine-readable JSON
// document (committed as BENCH_contention.json) with two enforced
// properties: past the contention knee CA-ASETS* strictly beats blind ASETS*
// on both the validate-fail count and the deadline miss ratio, and the
// decision-event streams of a serial and a 4-worker run are byte-identical.
package main

import (
	"fmt"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

const (
	// contentionBenchServers runs the parallel-dispatch regime where
	// conflict-aware scheduling pays: with several servers holding open read
	// snapshots concurrently, a contention-blind policy dispatches
	// conflicting transactions side by side and re-executes them at commit,
	// while the CA wrapper routes non-conflicting work onto the free servers.
	contentionBenchServers = 4
	// contentionBenchUtil is the per-server target utilization: hot enough
	// that re-executed work visibly inflates tardiness, below saturation so
	// the wrapper has slack to reorder into.
	contentionBenchUtil = 0.85
	// contentionBenchAlpha, Reads and Writes shape the per-transaction key
	// draws: a strongly skewed keyspace with small read/write sets, the
	// regime of docs/CONTENTION.md.
	contentionBenchAlpha  = 0.9
	contentionBenchReads  = 4
	contentionBenchWrites = 2
	// contentionBenchKnee is the keyspace size at and below which the gate
	// applies: from here down, Zipf-hot rows make conflicts frequent enough
	// that conflict-aware dispatch must strictly win on both metrics.
	contentionBenchKnee = 4096
)

// contentionBenchKeys sweeps the keyspace from sparse toward hot-spot: fewer
// keys mean more read/write overlap and more commit-time validation
// failures. (The sweep stops well above the degenerate extreme where nearly
// every pair conflicts and no dispatch order can win — docs/CONTENTION.md.)
var contentionBenchKeys = []int{65536, 16384, 4096, 1024}

// contentionBenchPolicies orders the two policy cells per keyspace size.
var contentionBenchPolicies = []struct {
	Name string
	New  func() sched.Scheduler
}{
	{"asets", func() sched.Scheduler { return core.New() }},
	{"asets-ca", func() sched.Scheduler { return contention.NewDeferring(core.New(), 0) }},
}

// contentionBenchCell is one (keys, policy) row, averaged over seeds.
type contentionBenchCell struct {
	Keys          int     `json:"keys"`
	Policy        string  `json:"policy"`
	ValidateFails float64 `json:"validate_fails"`
	MissRatio     float64 `json:"miss_ratio"`
	AvgTardiness  float64 `json:"avg_tardiness"`
}

// contentionBenchResult is the BENCH_contention.json document.
type contentionBenchResult struct {
	N       int                   `json:"n"`
	Seeds   int                   `json:"seeds"`
	Servers int                   `json:"servers"`
	Util    float64               `json:"util"`
	Alpha   float64               `json:"alpha"`
	Reads   int                   `json:"reads"`
	Writes  int                   `json:"writes"`
	Knee    int                   `json:"knee"`
	Cells   []contentionBenchCell `json:"cells"`
	// Deterministic reports that the serial and 4-worker runs produced
	// byte-identical decision-event streams (validate_fail and conflict_defer
	// included).
	Deterministic bool `json:"deterministic"`
	// ConflictAwareWins is the gate: at every keyspace at or below the knee,
	// CA-ASETS* has strictly fewer validate fails and a strictly lower miss
	// ratio than blind ASETS*.
	ConflictAwareWins bool `json:"conflict_aware_wins"`
}

// contentionBenchJobs builds one runner job per (keys, policy, seed) cell,
// each with its own sink and registry, in keys-major order.
func contentionBenchJobs(n, seeds int) ([]runner.Job, []*obs.Collector) {
	jobs := make([]runner.Job, 0, len(contentionBenchKeys)*len(contentionBenchPolicies)*seeds)
	cols := make([]*obs.Collector, 0, cap(jobs))
	for _, keys := range contentionBenchKeys {
		for _, pol := range contentionBenchPolicies {
			for s := 0; s < seeds; s++ {
				keys, pol := keys, pol
				col := &obs.Collector{}
				cols = append(cols, col)
				seed := experimentSeed(s)
				jobs = append(jobs, runner.Job{
					Gen: func(sd uint64) (*txn.Set, error) {
						// Utilization is per server, so the workload draws
						// Servers times that load.
						return workload.Generate(workload.Default(contentionBenchUtil*contentionBenchServers, sd).WithN(n).
							WithContention(contention.Keyspace{
								Keys: keys, Alpha: contentionBenchAlpha,
								Reads: contentionBenchReads, Writes: contentionBenchWrites,
							}))
					},
					Seed: &seed,
					New:  pol.New,
					// A private collector per job so event streams can be
					// digested; a private registry so metric merges never race.
					Config: sim.Config{Servers: contentionBenchServers, Sink: col, Metrics: obs.NewRegistry()},
					Label:  fmt.Sprintf("contention-k%d-%s-seed%d", keys, pol.Name, s),
				})
			}
		}
	}
	return jobs, cols
}

// runContentionBench executes the sweep over seeds, twice (serial and 4
// workers) to enforce the determinism contract, and gates on conflict-aware
// dispatch beating the blind policy past the contention knee.
func runContentionBench(n, seeds int) (any, error) {
	_, sums, _, deterministic, err := runSerialAndParallel(func() ([]runner.Job, []*obs.Collector) {
		return contentionBenchJobs(n, seeds)
	})
	if err != nil {
		return nil, err
	}

	res := contentionBenchResult{
		N: n, Seeds: seeds, Servers: contentionBenchServers,
		Util: contentionBenchUtil, Alpha: contentionBenchAlpha,
		Reads: contentionBenchReads, Writes: contentionBenchWrites,
		Knee:          contentionBenchKnee,
		Deterministic: deterministic,
	}
	k := float64(seeds)
	for i, keys := range contentionBenchKeys {
		for j, pol := range contentionBenchPolicies {
			c := contentionBenchCell{Keys: keys, Policy: pol.Name}
			for s := 0; s < seeds; s++ {
				sum := sums[(i*len(contentionBenchPolicies)+j)*seeds+s]
				c.ValidateFails += float64(sum.ValidateFails)
				c.MissRatio += sum.MissRatio
				c.AvgTardiness += sum.AvgTardiness
			}
			c.ValidateFails /= k
			c.MissRatio /= k
			c.AvgTardiness /= k
			res.Cells = append(res.Cells, c)
		}
	}
	res.ConflictAwareWins = true
	for i, keys := range contentionBenchKeys {
		blind := res.Cells[i*len(contentionBenchPolicies)]
		ca := res.Cells[i*len(contentionBenchPolicies)+1]
		if keys <= contentionBenchKnee &&
			(ca.ValidateFails >= blind.ValidateFails || ca.MissRatio >= blind.MissRatio) {
			res.ConflictAwareWins = false
		}
	}

	for _, c := range res.Cells {
		fmt.Printf("contention-bench: keys=%-5d %-9s validateFails=%7.1f miss=%6.2f%% avgTard=%8.3f\n",
			c.Keys, c.Policy, c.ValidateFails, 100*c.MissRatio, c.AvgTardiness)
	}
	fmt.Printf("contention-bench: deterministic=%v conflict_aware_wins=%v (knee: keys <= %d)\n",
		res.Deterministic, res.ConflictAwareWins, contentionBenchKnee)
	if !res.Deterministic {
		return res, fmt.Errorf("contention-bench: serial and 4-worker decision-event streams differ")
	}
	if !res.ConflictAwareWins {
		return res, fmt.Errorf("contention-bench: conflict-aware dispatch did not strictly beat blind ASETS* on validate fails and miss ratio past the knee (keys <= %d)", contentionBenchKnee)
	}
	return res, nil
}
