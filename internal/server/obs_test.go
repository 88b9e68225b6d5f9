package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/workload"
)

// fakeClockServer replays the standard test workload instantly under a
// FakeClock, so metric/stat comparisons see a finished run without real
// sleeping.
func fakeClockServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := workload.Default(0.9, 5).WithWorkflows(4, 1).WithWeights()
	cfg.N = 80
	set := workload.MustGenerate(cfg)
	s := New(core.New(), set, &cfg, executor.Options{
		TimeScale: time.Millisecond,
		Clock:     executor.NewFakeClock(time.Unix(0, 0)),
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func runToCompletion(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case <-mustStart(t, s, ctx):
	case <-ctx.Done():
		t.Fatal("replay did not finish in time")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLimitParamValidation pins the ?limit= contract shared by /api/recent
// and /events: malformed and non-positive values are a client error,
// oversized values clamp instead of failing.
func TestLimitParamValidation(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{"/api/recent", "/events"} {
		for _, tc := range []struct {
			query string
			want  int
		}{
			{"", http.StatusOK},
			{"?limit=1", http.StatusOK},
			{"?limit=999999", http.StatusOK}, // clamped, not rejected
			{"?limit=0", http.StatusBadRequest},
			{"?limit=-3", http.StatusBadRequest},
			{"?limit=bogus", http.StatusBadRequest},
			{"?limit=1.5", http.StatusBadRequest},
		} {
			resp, err := http.Get(ts.URL + path + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("GET %s%s: status %d, want %d", path, tc.query, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestEventsEndpoint: after a full replay, /events serves the most recent
// decisions newest-first with the limit honored and the total preserved,
// and the Timed meter, which counts each staged batch as it reaches the
// sink chain, reports that same total as /api/stats obs.events.
func TestEventsEndpoint(t *testing.T) {
	s, ts := fakeClockServer(t)
	runToCompletion(t, s)

	var payload eventsPayload
	getJSON(t, ts.URL+"/events", &payload)
	if payload.Total == 0 {
		t.Fatal("replay produced no events")
	}
	var st statsPayload
	getJSON(t, ts.URL+"/api/stats", &st)
	if st.Obs.Events != s.ring.Total() || st.Obs.Events != payload.Total {
		t.Fatalf("/api/stats obs.events %d, ring total %d, /events total %d", st.Obs.Events, s.ring.Total(), payload.Total)
	}
	if len(payload.Events) == 0 || len(payload.Events) > 100 {
		t.Fatalf("default limit returned %d events", len(payload.Events))
	}
	for i := 1; i < len(payload.Events); i++ {
		if payload.Events[i].Seq >= payload.Events[i-1].Seq {
			t.Fatalf("events not newest-first at %d: %+v", i, payload.Events)
		}
	}

	var small eventsPayload
	getJSON(t, ts.URL+"/events?limit=5", &small)
	if len(small.Events) != 5 {
		t.Fatalf("limit=5 returned %d events", len(small.Events))
	}
	if small.Total != payload.Total {
		t.Fatalf("total changed between reads: %d vs %d", small.Total, payload.Total)
	}
}

// promSamples parses a Prometheus text page into sample-name → value
// strings; names keep their label set (`asets_tardiness_bucket{le="1"}`).
func promSamples(t *testing.T, body string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		out[line[:i]] = line[i+1:]
	}
	return out
}

func getBody(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.Header.Get("Content-Type")
}

// TestMetricsMatchesStats is the exact-agreement acceptance criterion: the
// end-of-run /metrics page must reproduce the executor's Stats aggregates —
// the tardiness sum bit-for-bit, because both accumulate in completion
// order and the exposition format round-trips float64 exactly.
func TestMetricsMatchesStats(t *testing.T) {
	s, ts := fakeClockServer(t)
	runToCompletion(t, s)

	body, ctype := getBody(t, ts.URL+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("content type %q", ctype)
	}
	samples := promSamples(t, body)
	st := s.statsNow()

	wantInt := func(name string, want int) {
		t.Helper()
		got, ok := samples[name]
		if !ok {
			t.Fatalf("metric %s missing from /metrics", name)
		}
		if got != strconv.Itoa(want) {
			t.Errorf("%s = %s, want %d", name, got, want)
		}
	}
	wantInt("asets_sched_arrivals_total", st.Submitted)
	wantInt("asets_sched_completions_total", st.Completed)
	wantInt("asets_sched_deadline_misses_total", st.Misses)
	wantInt("asets_tardiness_count", st.Completed)
	wantInt("asets_workload_transactions", s.set.Len())

	sum, err := strconv.ParseFloat(samples["asets_tardiness_sum"], 64)
	if err != nil {
		t.Fatal(err)
	}
	exact := s.exec.Stats().SumTardiness
	if sum != exact {
		t.Errorf("asets_tardiness_sum = %v, want exactly %v", sum, exact)
	}
	if avg := st.AvgTardiness; avg != 0 {
		if got := sum / float64(st.Completed); got != avg {
			t.Errorf("avg from /metrics %v != /api/stats avg_tardiness %v", got, avg)
		}
	}
}

// onTimeServer replays a hand-built workload whose deadlines are generous
// enough that nothing can be tardy.
func onTimeServer(t *testing.T) *Server {
	t.Helper()
	txns := []*txn.Transaction{
		{ID: 0, Arrival: 0, Deadline: 100, Length: 1, Weight: 1},
		{ID: 1, Arrival: 1, Deadline: 100, Length: 0.5, Weight: 1},
		{ID: 2, Arrival: 2, Deadline: 100, Length: 2, Weight: 1},
	}
	set, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	return New(core.New(), set, nil, executor.Options{
		TimeScale: time.Millisecond,
		Clock:     executor.NewFakeClock(time.Unix(0, 0)),
	})
}

// TestStatsNowEdgeCases: before any completion the averages must read zero
// (not NaN), and an all-on-time run must report zero tardiness and misses
// on both /api/stats and /metrics.
func TestStatsNowEdgeCases(t *testing.T) {
	s := onTimeServer(t)
	st := s.statsNow()
	if st.Completed != 0 || st.AvgTardiness != 0 || st.MaxTardiness != 0 || st.Misses != 0 {
		t.Fatalf("pre-run stats = %+v", st)
	}

	runToCompletion(t, s)
	st = s.statsNow()
	if st.Completed != 3 || !st.Done {
		t.Fatalf("final stats = %+v", st)
	}
	if st.AvgTardiness != 0 || st.MaxTardiness != 0 || st.Misses != 0 {
		t.Fatalf("all-on-time run reported tardiness: %+v", st)
	}

	ts := httptest.NewServer(s)
	defer ts.Close()
	body, _ := getBody(t, ts.URL+"/metrics")
	samples := promSamples(t, body)
	for name, want := range map[string]string{
		"asets_sched_deadline_misses_total": "0",
		"asets_tardiness_sum":               "0",
		"asets_tardiness_count":             "3",
	} {
		if samples[name] != want {
			t.Errorf("%s = %q, want %q", name, samples[name], want)
		}
	}
}

// TestCallerRegistryOnMetrics: an embedding program extends the /metrics
// page by passing its own registry in executor.Options.Metrics or
// cluster.Config.Metrics; what it adds there is served beside the replay's
// instruments.
func TestCallerRegistryOnMetrics(t *testing.T) {
	cfg := workload.Default(0.7, 5)
	cfg.N = 20
	reg := obs.NewRegistry()
	s := New(core.New(), workload.MustGenerate(cfg), &cfg, executor.Options{Metrics: reg})
	reg.Counter("asets_custom_total", "caller-added counter").Inc()

	ccfg, set := testClusterFixture()
	creg := obs.NewRegistry()
	ccfg.Metrics = creg
	cs := NewCluster(ccfg, set, cluster.FleetOptions{})
	creg.Counter("asets_custom_total", "caller-added counter").Inc()

	for _, tc := range []struct {
		h    http.Handler
		want string
	}{{s, "asets_custom_total 1"}, {cs, "asets_custom_total 1"}} {
		ts := httptest.NewServer(tc.h)
		body, _ := getBody(t, ts.URL+"/metrics")
		ts.Close()
		if !strings.Contains(body, tc.want) || !strings.Contains(body, "asets_workload_transactions") {
			t.Fatalf("caller metric %q missing beside the replay's own:\n%s", tc.want, body)
		}
	}
}
