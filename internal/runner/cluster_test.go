package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// clusterJobs builds four routed jobs — different policies and retry
// budgets, shared crash/stall schedule — each with a private sink, registry
// and (where stateful) policy instance, as the determinism contract demands.
// Job i's workload seed is rng.Derive(0xC1A57E, i), the seed the goldens
// below were pinned with.
func clusterJobs() ([]Job, []*obs.Collector) {
	policies := []cluster.Policy{
		cluster.NewRoundRobin(), cluster.LeastLoaded{}, cluster.SlackAware{}, cluster.HealthWeighted{},
	}
	jobs := make([]Job, len(policies))
	cols := make([]*obs.Collector, len(policies))
	for i, pol := range policies {
		cols[i] = &obs.Collector{}
		seed := rng.Derive(0xC1A57E, uint64(i))
		jobs[i] = Job{
			Gen:  func(seed uint64) (*txn.Set, error) { return genWorkload(seed) },
			Seed: &seed,
			New:  sched.NewSRPT,
			Cluster: &ClusterJob{Config: cluster.Config{
				Instances: 3,
				Policy:    pol,
				Faults: []*fault.Plan{
					nil,
					{Stalls: []fault.Window{{Start: 30, Duration: 6, Kind: fault.Crash}}},
					{Stalls: []fault.Window{{Start: 55, Duration: 4, Kind: fault.Stall}}},
				},
				Retry:            cluster.Retry{Budget: 1 + i%2, BackoffBase: 0.5, BackoffCap: 2},
				RecoveryCooldown: 1,
				Sink:             cols[i],
				Metrics:          obs.NewRegistry(),
			}},
			Label: "cluster-" + pol.Name(),
		}
	}
	return jobs, cols
}

// digest hashes the jobs' routed event streams, concatenated in job order.
func digest(t *testing.T, cols []*obs.Collector) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	for _, col := range cols {
		for _, ev := range col.Events() {
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			buf.WriteByte('\n')
		}
	}
	return sha256.Sum256(buf.Bytes())
}

// folds hashes the jobs' fold digests (obstest.RoutedFolds), in job order.
func folds(cols []*obs.Collector) (instants, txns string) {
	var a, b bytes.Buffer
	for _, col := range cols {
		i, x := obstest.RoutedFolds(col.Events())
		a.WriteString(i + "\n")
		b.WriteString(x + "\n")
	}
	return fmt.Sprintf("%x", sha256.Sum256(a.Bytes())), fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// Fold digests of the routed jobs fixture (see the cluster package's fold
// goldens for what the folds forgive). Regenerate only for an intended
// schedule change.
const (
	foldClusterJobsInstants = "416292323f029f4e18b33960ad4c41eb9b0142023b1d0484a7a8ac9f975ed364"
	foldClusterJobsTxns     = "ffd9c377fe4ea00daf9a7db71298ae97607efaff9b2b5ba43fb945ac6f451612"
)

// Goldens of the routed jobs fixture: the sha256 of the four jobs' routed
// JSONL streams in job order, and of their JSON-encoded results. Regenerate
// only for an intended schedule change.
const (
	goldenClusterJobsStream = "b1f33ed65cbf20e0689c1b8d7fecdbe39223bcd3556453d2f1f082d1ff6c0e86"
	goldenClusterJobsResult = "c75c77eea33b5332f1510ed092d0f4fd88998be01009f438991f34214f604f05"
)

// TestClusterJobsSerialParallelIdentical pins the cluster tier to the
// pool's determinism contract: the routed decision streams — routing,
// ejection, failover, per-instance scheduling — of a 4-worker run are
// byte-identical to the serial run, and so are the failover results.
func TestClusterJobsSerialParallelIdentical(t *testing.T) {
	var instants, txns string
	run := func(workers int) ([32]byte, []*cluster.Result) {
		jobs, cols := clusterJobs()
		defer func() { instants, txns = folds(cols) }()
		sums, err := Pool{Workers: workers}.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*cluster.Result, len(jobs))
		for i := range jobs {
			results[i] = jobs[i].Cluster.Result
			if results[i] == nil || results[i].Summary != sums[i] {
				t.Fatalf("job %d: cluster result not gathered alongside its summary", i)
			}
		}
		return digest(t, cols), results
	}
	serialDigest, serialRes := run(1)
	parallelDigest, parallelRes := run(4)
	if serialDigest != parallelDigest {
		t.Fatal("routed event streams differ between serial and 4-worker runs")
	}
	if !reflect.DeepEqual(serialRes, parallelRes) {
		t.Fatalf("cluster results differ between serial and 4-worker runs:\n%+v\n%+v", serialRes, parallelRes)
	}
	// Pinned across commits: two runs of one commit agreeing cannot show
	// that a change to the routing loop left every schedule in place.
	resJSON, err := json.Marshal(serialRes)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", serialDigest); got != goldenClusterJobsStream {
		t.Errorf("routed stream digest %s, pinned %s", got, goldenClusterJobsStream)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(resJSON)); got != goldenClusterJobsResult {
		t.Errorf("result digest %s, pinned %s", got, goldenClusterJobsResult)
	}
	if instants != foldClusterJobsInstants || txns != foldClusterJobsTxns {
		t.Errorf("fold digests %s / %s, pinned %s / %s", instants, txns, foldClusterJobsInstants, foldClusterJobsTxns)
	}
	for i, res := range serialRes {
		if res.Ejections == 0 {
			t.Fatalf("job %d exercised no ejection; tighten the fixture", i)
		}
	}
}

// TestClusterJobsRejectSharedState: a stateful policy or a sink shared
// between two cluster jobs breaks run isolation and must be rejected up
// front, exactly like shared sim observability state.
func TestClusterJobsRejectSharedState(t *testing.T) {
	pol := cluster.NewRoundRobin()
	sink := &obs.Collector{}
	for _, tc := range []struct {
		name string
		mut  func(a, b *ClusterJob)
		want string
	}{
		{"policy", func(a, b *ClusterJob) { a.Config.Policy, b.Config.Policy = pol, pol }, "routing policy"},
		{"sink", func(a, b *ClusterJob) { a.Config.Sink, b.Config.Sink = sink, sink }, "event sink"},
	} {
		a := &ClusterJob{Config: cluster.Config{Instances: 2}}
		b := &ClusterJob{Config: cluster.Config{Instances: 2}}
		tc.mut(a, b)
		jobs := []Job{
			{Gen: func(seed uint64) (*txn.Set, error) { return genWorkload(seed) }, New: sched.NewFCFS, Cluster: a},
			{Gen: func(seed uint64) (*txn.Set, error) { return genWorkload(seed) }, New: sched.NewFCFS, Cluster: b},
		}
		_, err := Pool{Workers: 2}.Run(context.Background(), jobs)
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
			t.Fatalf("%s: error = %v, want shared %s rejected", tc.name, err, tc.want)
		}
	}
}

// genWorkload builds a 250-transaction independent workload at utilization
// 2.4 — 0.8 per instance across the three-instance fixtures above.
func genWorkload(seed uint64) (*txn.Set, error) {
	cfg := workload.Default(2.4, seed)
	cfg.N = 250
	return workload.Generate(cfg)
}
