package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync"

	"repro/internal/obs"
	"repro/internal/txn"
)

// replay is the part of a live server that does not depend on what it
// replays: the single-use background run (Start, Err, Wait), the metrics
// registry, and the event ring and SSE hub the run's sink feeds, with the
// /metrics, /events and /events/stream handlers over them. Server and
// ClusterServer each embed one and add their own endpoints to its mux.
type replay struct {
	// run is the replay itself, set by the embedding server before Start.
	run func(context.Context) error
	// scrape, when set, refreshes scrape-time gauges before /metrics
	// renders.
	scrape func()

	mux  *http.ServeMux
	reg  *obs.Registry
	ring *obs.Ring
	sse  *sseHub

	mu      sync.Mutex
	started bool  // guarded by mu
	runErr  error // guarded by mu
	done    chan struct{}
}

// newReplay builds the shared core over reg, creating a registry when the
// caller brought none, exports the workload size, and mounts the three
// shared handlers.
func newReplay(reg *obs.Registry, set *txn.Set) *replay {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &replay{
		mux:  http.NewServeMux(),
		reg:  reg,
		ring: obs.NewRing(eventRing),
		sse:  newSSEHub(reg),
		done: make(chan struct{}),
	}
	reg.Gauge("asets_workload_transactions", "transactions in the replayed workload").Set(float64(set.Len()))
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /events", c.handleEvents)
	c.mux.HandleFunc("GET /events/stream", c.handleEventStream)
	return c
}

// ServeHTTP implements http.Handler.
func (c *replay) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// ErrAlreadyStarted is returned by Start when the replay was already
// launched: a Server replays its workload exactly once.
var ErrAlreadyStarted = errors.New("server: replay already started (a Server is single-use; build a new one to replay again)")

// Start launches the replay in a background goroutine. The returned channel
// closes when the replay finishes or ctx is cancelled. A server is
// single-use: a second Start returns ErrAlreadyStarted without touching the
// running replay (restarting would re-enter the engine over a consumed
// workload and corrupt the scheduler's state).
func (c *replay) Start(ctx context.Context) (<-chan struct{}, error) {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return nil, ErrAlreadyStarted
	}
	c.started = true
	c.mu.Unlock()
	go func() {
		defer close(c.done)
		err := c.run(ctx)
		c.mu.Lock()
		c.runErr = err
		c.mu.Unlock()
	}()
	return c.done, nil
}

// Err returns the replay error, if any, once the run has ended.
func (c *replay) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runErr
}

// Wait joins the replay goroutine: it blocks until the replay started by
// Start has finished (returning its error) or until ctx ends (returning
// ctx.Err()). Callers that cancel the Start context should still Wait so
// the goroutine is joined before teardown.
func (c *replay) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return c.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *replay) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if c.scrape != nil {
		c.scrape()
	}
	// Render into a buffer first: WritePrometheus writing straight to w
	// would commit a 200 on its first byte, making the error branch a
	// superfluous WriteHeader when a scrape is cut off mid-body.
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, c.reg); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// eventsPayload is the /events response document.
type eventsPayload struct {
	Total  uint64      `json:"total"`
	Events []obs.Event `json:"events"` // newest first
}

func (c *replay) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit, err := parseLimit(r, 100, eventRing)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, eventsPayload{Total: c.ring.Total(), Events: c.ring.Snapshot(limit)})
}
