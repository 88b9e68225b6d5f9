package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/workload"
)

// haltClock paces a replay instantly until it is asked to sleep to a
// wall-clock offset at or past horizon (its Now never moves, so the offset is
// the target instant times the time scale). There it closes halted and
// blocks until the run's context ends, freezing the live status board.
type haltClock struct {
	horizon time.Duration
	halted  chan struct{}
}

func (c *haltClock) Now() time.Time { return time.Unix(0, 0) }

func (c *haltClock) Sleep(ctx context.Context, d time.Duration) error {
	if d < c.horizon {
		return nil
	}
	close(c.halted)
	<-ctx.Done()
	return ctx.Err()
}

// testEjectedClusterServer runs a one-instance fleet whose only fault domain
// crashes at time 1 for a very long window, and freezes the replay while the
// instance is ejected, so the fleet answers 503.
func testEjectedClusterServer(t *testing.T) *httptest.Server {
	t.Helper()
	cfg := workload.Default(0.5, 0xDEAD)
	cfg.N = 20
	set := workload.MustGenerate(cfg)
	clock := &haltClock{horizon: 1e6 * time.Millisecond, halted: make(chan struct{})}
	s := NewCluster(cluster.Config{
		Instances:    1,
		NewScheduler: sched.NewEDF,
		Faults:       []*fault.Plan{{Stalls: []fault.Window{{Start: 1, Duration: 1e9, Kind: fault.Crash}}}},
		NoFailover:   true,
	}, set, cluster.FleetOptions{TimeScale: time.Millisecond, Clock: clock})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done, err := s.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		<-done
	})
	select {
	case <-clock.halted:
	case <-done:
		t.Fatal("replay finished before the fleet was ejected")
	case <-time.After(30 * time.Second):
		t.Fatal("replay never reached the crash window")
	}
	return ts
}

// TestJSONEndpointsContentType: every JSON answer of both servers, success
// and error statuses alike, carries Content-Type application/json rather
// than the text/plain Go sniffs from an indented JSON body.
func TestJSONEndpointsContentType(t *testing.T) {
	_, single := testServer(t)
	cfg := workload.Default(0.5, 3)
	cfg.N = 10
	gated := httptest.NewServer(New(core.New(), workload.MustGenerate(cfg), &cfg, executor.Options{
		TimeScale: time.Millisecond,
		Admit:     admit.Feasibility{},
	}))
	t.Cleanup(gated.Close)
	_, fleet := testClusterServer(t)
	ejected := testEjectedClusterServer(t)

	for _, tc := range []struct {
		name   string
		srv    *httptest.Server
		method string
		path   string
		body   string
		status int
	}{
		{"stats", single, "GET", "/api/stats", "", http.StatusOK},
		{"recent", single, "GET", "/api/recent", "", http.StatusOK},
		{"workload", single, "GET", "/api/workload", "", http.StatusOK},
		{"events", single, "GET", "/events", "", http.StatusOK},
		{"spans", single, "GET", "/api/spans", "", http.StatusOK},
		{"submit accepted", gated, "POST", "/api/submit", `{"length": 1, "deadline": 5}`, http.StatusAccepted},
		{"submit shed", gated, "POST", "/api/submit", `{"length": 2, "deadline": 1}`, http.StatusTooManyRequests},
		{"cluster stats", fleet, "GET", "/api/stats", "", http.StatusOK},
		{"cluster fleet", fleet, "GET", "/api/fleet", "", http.StatusOK},
		{"cluster events", fleet, "GET", "/events", "", http.StatusOK},
		{"cluster health", fleet, "GET", "/healthz", "", http.StatusOK},
		{"cluster submit accepted", fleet, "POST", "/api/submit", `{}`, http.StatusAccepted},
		{"cluster health degraded", ejected, "GET", "/healthz", "", http.StatusServiceUnavailable},
		{"cluster instance health ejected", ejected, "GET", "/healthz?instance=0", "", http.StatusServiceUnavailable},
		{"cluster submit shed", ejected, "POST", "/api/submit", `{}`, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s %s: Content-Type %q, want application/json", tc.method, tc.path, ct)
			}
		})
	}
}
