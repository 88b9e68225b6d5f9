package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// testClusterServer builds a four-instance fleet replay with two mid-run
// instance crashes (fault domains 1 and 2) so a live run exercises ejection,
// failover and circuit-breaker recovery while HTTP clients watch.
func testClusterServer(t *testing.T) (*ClusterServer, *httptest.Server) {
	t.Helper()
	cfg := workload.Default(3.2, 0xFEE7) // 0.8 per instance across 4 domains
	cfg.N = 400
	set := workload.MustGenerate(cfg)
	ccfg := cluster.Config{
		Instances:    4,
		Policy:       cluster.HealthWeighted{},
		NewScheduler: sched.NewSRPT,
		Faults: []*fault.Plan{
			nil,
			{Stalls: []fault.Window{{Start: 300, Duration: 40, Kind: fault.Crash}}},
			{Stalls: []fault.Window{{Start: 700, Duration: 30, Kind: fault.Crash}}},
			nil,
		},
		Retry:            cluster.Retry{Budget: 2, BackoffBase: 0.5, BackoffCap: 4},
		RecoveryCooldown: 5,
	}
	s := NewCluster(ccfg, set, cluster.FleetOptions{TimeScale: 200 * time.Microsecond})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestClusterStatsBeforeStart(t *testing.T) {
	s, ts := testClusterServer(t)
	var st clusterStatsPayload
	getJSON(t, ts.URL+"/api/stats", &st)
	if st.Route != "weighted" || st.Scheduler != "SRPT" || st.N != 400 || st.Done {
		t.Fatalf("initial cluster stats = %+v", st)
	}
	// The board is unpublished before Start; health must still report the
	// configured fleet width, not an outage.
	var hp clusterHealthPayload
	getJSON(t, ts.URL+"/healthz", &hp)
	if hp.Status != "ok" || hp.Healthy != 4 {
		t.Fatalf("pre-start /healthz = %+v", hp)
	}
	if s.fleet.Done() {
		t.Fatal("fleet done before start")
	}
}

func TestClusterHealthInstanceValidation(t *testing.T) {
	_, ts := testClusterServer(t)
	for _, q := range []string{"?instance=-1", "?instance=99", "?instance=x"} {
		resp, err := http.Get(ts.URL + "/healthz" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /healthz%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestClusterHammerConcurrentSubmitCrashRecovery is the cluster tier's -race
// target: many goroutines hammer reads and submits against the live fleet
// while fault domains 1 and 2 crash mid-replay, lose their queues, and the
// router fails the work over and later re-admits the recovered instances.
func TestClusterHammerConcurrentSubmitCrashRecovery(t *testing.T) {
	s, ts := testClusterServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done, err := s.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(ctx); err != ErrAlreadyStarted {
		t.Fatalf("second Start = %v, want ErrAlreadyStarted", err)
	}

	// Readers: whole-fleet and per-instance health may legally answer 503
	// while a fault domain is ejected; everything else must stay 200.
	paths := []struct {
		path     string
		allow503 bool
	}{
		{"/api/stats", false},
		{"/metrics", false},
		{"/events?limit=10", false},
		{"/healthz", true},
		{"/healthz?instance=1", true},
		{"/healthz?instance=2", true},
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(p struct {
			path     string
			allow503 bool
		}) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + p.path)
				if err != nil {
					t.Errorf("GET %s: %v", p.path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && !(p.allow503 && resp.StatusCode == http.StatusServiceUnavailable) {
					t.Errorf("GET %s: status %d", p.path, resp.StatusCode)
					return
				}
			}
		}(paths[i%len(paths)])
	}
	// Submitters: the placement preview must always answer — 202 while any
	// instance is healthy, 503 with Retry-After only during a full outage.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/api/submit", "application/json", bytes.NewReader(nil))
				if err != nil {
					t.Errorf("POST /api/submit: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("POST /api/submit: 503 without Retry-After")
						return
					}
				default:
					t.Errorf("POST /api/submit: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := s.Result()
	if err != nil || res == nil {
		t.Fatalf("Result after Wait = %v, %v", res, err)
	}
	if res.Ejections < 2 || res.Recoveries < 2 {
		t.Fatalf("hammer run exercised %d ejections / %d recoveries, want both crashes ejected and recovered", res.Ejections, res.Recoveries)
	}
	if res.Failovers == 0 {
		t.Fatal("hammer run exercised no failover; tighten the fixture")
	}

	// Post-run surfaces must agree with the engine's result.
	var st clusterStatsPayload
	getJSON(t, ts.URL+"/api/stats", &st)
	if !st.Done || st.Routes != res.Routes || st.Failovers != res.Failovers || st.Lost != res.Lost {
		t.Fatalf("final stats %+v disagree with result %+v", st, res)
	}
	if st.Healthy != 4 {
		t.Fatalf("all crash windows closed; healthy = %d, want 4", st.Healthy)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final /healthz status %d", resp.StatusCode)
	}
	metrics, _ := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{obs.KindFailover.Counter(), obs.KindEject.Counter(), obs.KindRecover.Counter(), obs.KindRoute.Counter()} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}
