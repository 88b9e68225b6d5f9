package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/workload"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := workload.Default(0.7, 5).WithWorkflows(4, 1).WithWeights()
	cfg.N = 80
	set := workload.MustGenerate(cfg)
	s := New(core.New(), set, &cfg, executor.Options{TimeScale: 20 * time.Microsecond})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func mustStart(t *testing.T, s *Server, ctx context.Context) <-chan struct{} {
	t.Helper()
	done, err := s.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestStatsBeforeStart(t *testing.T) {
	_, ts := testServer(t)
	var st statsPayload
	getJSON(t, ts.URL+"/api/stats", &st)
	if st.Policy != "ASETS*" || st.N != 80 || st.Completed != 0 || st.Done {
		t.Fatalf("initial stats = %+v", st)
	}
}

func TestFullRunThroughHTTP(t *testing.T) {
	s, ts := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	select {
	case <-mustStart(t, s, ctx):
	case <-ctx.Done():
		t.Fatal("run did not finish in time")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	var st statsPayload
	getJSON(t, ts.URL+"/api/stats", &st)
	if !st.Done || st.Completed != 80 || st.Submitted != 80 {
		t.Fatalf("final stats = %+v", st)
	}
	if st.AvgTardiness < 0 || st.MaxTardiness < st.AvgTardiness {
		t.Fatalf("tardiness inconsistent: %+v", st)
	}

	var recent []Completion
	getJSON(t, ts.URL+"/api/recent?limit=10", &recent)
	if len(recent) != 10 {
		t.Fatalf("recent = %d entries", len(recent))
	}
	// Newest first: finish times non-increasing.
	for i := 1; i < len(recent); i++ {
		if recent[i].Finish > recent[i-1].Finish {
			t.Fatalf("recent not newest-first: %v", recent)
		}
	}
}

func TestStartSingleUse(t *testing.T) {
	s, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c1 := mustStart(t, s, ctx)
	if _, err := s.Start(ctx); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("second Start = %v, want ErrAlreadyStarted", err)
	}
	<-c1
	// Still rejected after the replay finished: the workload is consumed.
	if _, err := s.Start(ctx); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("post-completion Start = %v, want ErrAlreadyStarted", err)
	}
}

func TestRecentBadLimit(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/recent?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestWorkloadDownloadRoundTrips(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	set, cfg, err := workload.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 80 || cfg == nil || cfg.N != 80 {
		t.Fatalf("downloaded workload: len=%d cfg=%+v", set.Len(), cfg)
	}
}

func TestDashboardHTML(t *testing.T) {
	s, ts := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	<-mustStart(t, s, ctx)

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{"ASETS*", "avg tardiness", "<table>", "done"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestNotFound(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestRecentRingWraps(t *testing.T) {
	// More completions than the ring holds: snapshot still returns newest
	// first without duplicates.
	cfg := workload.Default(0.5, 11)
	cfg.N = completionRing + 40
	set := workload.MustGenerate(cfg)
	s := New(core.New(), set, nil, executor.Options{TimeScale: 5 * time.Microsecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	<-mustStart(t, s, ctx)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	recent := s.done.snapshot(0)
	if len(recent) != completionRing {
		t.Fatalf("ring holds %d", len(recent))
	}
	seen := map[int]bool{}
	for _, c := range recent {
		if seen[int(c.ID)] {
			t.Fatalf("duplicate completion %d in ring", c.ID)
		}
		seen[int(c.ID)] = true
	}
}
