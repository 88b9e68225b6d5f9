// Package server exposes a live ASETS*-scheduled transaction stream over
// HTTP: the kind of web-database front end the paper targets, reduced to
// its observable essentials. A workload replays through the online executor
// while the server reports progress — current queue state, tardiness so
// far, recent completions — as JSON APIs and a self-refreshing HTML
// dashboard.
//
// Endpoints:
//
//	GET  /              HTML dashboard (auto-refreshing)
//	GET  /api/stats     executor statistics snapshot (JSON)
//	GET  /api/recent    most recent completions, newest first (JSON)
//	GET  /api/workload  the full workload being replayed (JSON)
//	POST /api/submit    admission gate: would this transaction be served now?
//	GET  /metrics       live metrics, Prometheus text exposition format
//	                    (including the span layer's windowed percentile
//	                    sketches)
//	GET  /events        recent scheduler decision events, newest first (JSON)
//	GET  /events/stream live decision events as Server-Sent Events
//	GET  /api/spans     per-transaction causal spans, newest first (JSON)
//	GET  /healthz       liveness probe; 503 "degraded" while the admission
//	                    controller is in degradation mode
//
// POST /api/submit is an honest admission gate rather than a mutation: the
// replayed workload is fixed at construction (schedulers use dense
// transaction IDs), so the endpoint evaluates the configured admission
// controller against the executor's live state and answers 202 (would be
// admitted) or 429 with a Retry-After hint derived from the live backlog
// (would be shed). docs/ROBUSTNESS.md covers the design.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// completionRing keeps the last N completions for /api/recent.
const completionRing = 256

// eventRing keeps the last N scheduler decision events for /events.
const eventRing = 1024

// Completion is one finished transaction as reported by /api/recent.
type Completion struct {
	ID        txn.ID  `json:"id"`
	Finish    float64 `json:"finish"`
	Deadline  float64 `json:"deadline"`
	Tardiness float64 `json:"tardiness"`
	Weight    float64 `json:"weight"`
}

// Server hosts the dashboard for one executor run. Create with New, mount
// anywhere via http.Handler, and call Start to begin the replay.
type Server struct {
	*replay
	set       *txn.Set
	cfg       *workload.Config
	policy    string
	admitName string
	timeScale time.Duration
	exec      *executor.Executor
	spans     *obs.SpanBuilder
	ov        *obs.Overhead
	g         obsGauges
	done      *completions
}

// completions is the /api/recent ring: a sink that keeps the last
// completionRing completion events of the replay.
type completions struct {
	set *txn.Set

	mu     sync.Mutex
	recent [completionRing]Completion // guarded by mu
	// n counts the filled slots and next is the slot the next completion
	// fills; both guarded by mu.
	n, next int
}

// New builds a server that will replay set under the given scheduler. cfg
// is optional provenance served by /api/workload.
func New(policy sched.Scheduler, set *txn.Set, cfg *workload.Config, opts executor.Options) *Server {
	s := &Server{
		replay:    newReplay(opts.Metrics, set),
		set:       set,
		cfg:       cfg,
		policy:    policy.Name(),
		admitName: "none",
		timeScale: opts.TimeScale,
		done:      &completions{set: set},
	}
	if opts.Admit != nil {
		s.admitName = opts.Admit.Name()
	}
	if s.timeScale <= 0 {
		s.timeScale = executor.DefaultTimeScale
	}
	// Observability: the server always instruments its executor — the
	// registry backs /metrics, the event ring backs /events, the completion
	// events fill /api/recent. A caller's own registry and sink keep working
	// alongside.
	opts.Metrics = s.reg
	s.ov = obs.NewOverhead()
	s.spans = obs.NewSpanBuilder(set, obs.SpanOptions{
		Metrics: s.reg, Window: spanWindow, Keep: spanRing, Overhead: s.ov,
	})
	// The sink chain is wrapped in a Timed meter so the cost of observing —
	// events fanned out, wall-clock ns inside the fan-out — is itself
	// exported (/api/stats "obs" block, asets_obs_* gauges). The clock is
	// the executor's own, so a FakeClock replay stays deterministic: time
	// attribution is simply zero there.
	clk := opts.Clock
	if clk == nil {
		clk = executor.RealClock{}
	}
	opts.Sink = obs.NewTimed(obs.Tee(opts.Sink, s.ring, s.spans, s.sse, s.done), s.ov, clk.Now)
	s.g = newObsGauges(s.reg)

	s.exec = executor.New(policy, set, opts)
	s.run = func(ctx context.Context) error {
		_, err := s.exec.Run(ctx)
		return err
	}
	s.scrape = s.publishObs

	s.mux.HandleFunc("GET /", s.handleDashboard)
	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/recent", s.handleRecent)
	s.mux.HandleFunc("GET /api/workload", s.handleWorkload)
	s.mux.HandleFunc("POST /api/submit", s.handleSubmit)
	s.mux.HandleFunc("GET /api/spans", s.handleSpans)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Emit implements obs.Sink: a completion event enters the ring.
func (s *completions) Emit(ev obs.Event) {
	if ev.Kind != obs.KindCompletion {
		return
	}
	c := Completion{
		ID:        ev.Txn,
		Finish:    ev.Time,
		Deadline:  ev.Deadline,
		Tardiness: ev.Tardiness,
		Weight:    s.set.ByID(ev.Txn).Weight,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recent[s.next] = c
	s.next = (s.next + 1) % completionRing
	s.n = min(s.n+1, completionRing)
}

// snapshot returns up to limit completions, newest first.
func (s *completions) snapshot(limit int) []Completion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit <= 0 || limit > s.n {
		limit = s.n
	}
	out := make([]Completion, 0, limit)
	for i := 0; i < limit; i++ {
		// The newest completion sits just before next.
		idx := (s.next - 1 - i + completionRing) % completionRing
		out = append(out, s.recent[idx])
	}
	return out
}

// statsPayload is the /api/stats response document.
type statsPayload struct {
	Policy       string  `json:"policy"`
	Admit        string  `json:"admit"`
	N            int     `json:"n"`
	Now          float64 `json:"now"`
	Submitted    int     `json:"submitted"`
	Completed    int     `json:"completed"`
	Running      int     `json:"running"` // -1 when idle
	AvgTardiness float64 `json:"avg_tardiness"`
	MaxTardiness float64 `json:"max_tardiness"`
	Misses       int     `json:"misses"`
	Shed         int     `json:"shed"`
	Aborts       int     `json:"aborts"`
	Restarts     int     `json:"restarts"`
	Stalls       int     `json:"stalls"`
	Backlog      float64 `json:"backlog"`
	Degraded     bool    `json:"degraded"`
	Done         bool    `json:"done"`
	// Obs is the observability layer's self-telemetry: what watching the
	// run costs (events, instrumentation ns, pool behaviour, retained
	// bytes) plus Go runtime gauges sampled at request time.
	Obs obsPayload `json:"obs"`
}

// obsPayload is the self-telemetry block of /api/stats.
type obsPayload struct {
	obs.OverheadStats
	// RetainedBytes is the memory pinned by the event ring and the span
	// builder (spans, free list, state tables).
	RetainedBytes int `json:"retained_bytes"`
	// Spans is the number of spans closed so far.
	Spans uint64 `json:"spans"`
	// Runtime holds host-process gauges via runtime/metrics; these are
	// facts about the Go process, never simulation state.
	Runtime obs.RuntimeSample `json:"runtime"`
}

// obsGauges are the /metrics exports of the self-telemetry block, published
// at scrape time (handleMetrics) from the same sources as /api/stats.
type obsGauges struct {
	events, nanos, poolHits, poolMisses, retained *obs.Gauge
	heap, gc, goroutines                          *obs.Gauge
}

func newObsGauges(reg *obs.Registry) obsGauges {
	return obsGauges{
		events:     reg.Gauge("asets_obs_events", "events fanned out through the instrumented sink path"),
		nanos:      reg.Gauge("asets_obs_instr_ns", "wall-clock nanoseconds attributed to instrumentation fan-out"),
		poolHits:   reg.Gauge("asets_obs_pool_hits", "span free-list reuses"),
		poolMisses: reg.Gauge("asets_obs_pool_misses", "span pool misses (fresh span allocations)"),
		retained:   reg.Gauge("asets_obs_retained_bytes", "bytes retained by the event ring and span builder"),
		heap:       reg.Gauge("asets_runtime_heap_bytes", "live heap bytes (runtime/metrics)"),
		gc:         reg.Gauge("asets_runtime_gc_cycles", "completed GC cycles (runtime/metrics)"),
		goroutines: reg.Gauge("asets_runtime_goroutines", "goroutine count (runtime/metrics)"),
	}
}

func (s *Server) obsNow() obsPayload {
	return obsPayload{
		OverheadStats: s.ov.Stats(),
		RetainedBytes: s.ring.RetainedBytes() + s.spans.RetainedBytes(),
		Spans:         s.spans.Total(),
		Runtime:       obs.ReadRuntimeSample(),
	}
}

// publishObs copies the self-telemetry into the registry gauges so /metrics
// carries the same numbers as /api/stats.
func (s *Server) publishObs() {
	o := s.obsNow()
	s.g.events.Set(float64(o.Events))
	s.g.nanos.Set(float64(o.InstrNanos))
	s.g.poolHits.Set(float64(o.PoolHits))
	s.g.poolMisses.Set(float64(o.PoolMisses))
	s.g.retained.Set(float64(o.RetainedBytes))
	s.g.heap.Set(float64(o.Runtime.HeapBytes))
	s.g.gc.Set(float64(o.Runtime.GCCycles))
	s.g.goroutines.Set(float64(o.Runtime.Goroutines))
}

func (s *Server) statsNow() statsPayload {
	st := s.exec.Stats()
	return statsPayload{
		Policy:       s.policy,
		Admit:        s.admitName,
		N:            s.set.Len(),
		Now:          st.Now,
		Submitted:    st.Submitted,
		Completed:    st.Completed,
		Running:      int(st.Running),
		AvgTardiness: st.AvgTardiness(),
		MaxTardiness: st.MaxTardiness,
		Misses:       st.Misses,
		Shed:         st.Shed,
		Aborts:       st.Aborts,
		Restarts:     st.Restarts,
		Stalls:       st.Stalls,
		Backlog:      st.Backlog,
		Degraded:     st.Degraded,
		Done:         s.exec.Done(),
		Obs:          s.obsNow(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.statsNow())
}

// parseLimit validates a ?limit= query parameter: malformed or
// non-positive values yield an error (the caller answers 400), absent
// values yield def, and oversized values clamp to max.
func parseLimit(r *http.Request, def, max int) (int, error) {
	q := r.URL.Query().Get("limit")
	if q == "" {
		return def, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("limit %q must be a positive integer", q)
	}
	if v > max {
		v = max
	}
	return v, nil
}

func (s *Server) handleRecent(w http.ResponseWriter, r *http.Request) {
	limit, err := parseLimit(r, 50, completionRing)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, s.done.snapshot(limit))
}

func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := workload.WriteJSON(w, s.set, s.cfg); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.exec.AdmissionDegraded() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "degraded")
		return
	}
	fmt.Fprintln(w, "ok")
}

// submitBodyLimit caps POST /api/submit request bodies: the document is a
// three-field JSON object, so anything past a few KiB is abuse.
const submitBodyLimit = 4 << 10

// submitRequest is the POST /api/submit request document. Deadline is an
// offset from the executor's current simulated time.
type submitRequest struct {
	Length   float64 `json:"length"`
	Deadline float64 `json:"deadline"`
	Weight   float64 `json:"weight"` // default 1
}

// submitDecision is the POST /api/submit response document.
type submitDecision struct {
	Admitted   bool    `json:"admitted"`
	Controller string  `json:"controller"`
	Now        float64 `json:"now"`
	Backlog    float64 `json:"backlog"`
	Degraded   bool    `json:"degraded"`
	// RetryAfterSeconds mirrors the Retry-After header on shed answers: the
	// wall-clock time the live backlog needs to drain at the configured
	// TimeScale.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, submitBodyLimit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "submit: "+err.Error(), status)
		return
	}
	if req.Weight == 0 {
		req.Weight = 1
	}
	switch {
	case req.Length <= 0:
		http.Error(w, fmt.Sprintf("submit: length %v must be positive", req.Length), http.StatusBadRequest)
		return
	case req.Deadline < 0:
		http.Error(w, fmt.Sprintf("submit: deadline offset %v must be non-negative", req.Deadline), http.StatusBadRequest)
		return
	case req.Weight <= 0:
		http.Error(w, fmt.Sprintf("submit: weight %v must be positive", req.Weight), http.StatusBadRequest)
		return
	}
	st := s.exec.Stats()
	cand := &txn.Transaction{
		ID: -1, Arrival: st.Now, Deadline: st.Now + req.Deadline,
		Length: req.Length, Remaining: req.Length, Weight: req.Weight,
	}
	admitted, live := s.exec.Probe(cand)
	resp := submitDecision{
		Admitted:   admitted,
		Controller: s.admitName,
		Now:        live.Now,
		Backlog:    live.Backlog,
		Degraded:   live.Degraded,
	}
	if !admitted {
		// Retry once the live backlog has drained (at least 1s so the
		// header is meaningful to coarse-grained clients).
		secs := math.Ceil(live.Backlog * s.timeScale.Seconds())
		if secs < 1 {
			secs = 1
		}
		resp.RetryAfterSeconds = secs
		w.Header().Set("Retry-After", strconv.Itoa(int(secs)))
		writeJSONStatus(w, http.StatusTooManyRequests, resp)
		return
	}
	writeJSONStatus(w, http.StatusAccepted, resp)
}

var dashboardTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><title>ASETS* live scheduler</title>
<meta http-equiv="refresh" content="1">
<style>
body { font-family: monospace; margin: 2em; }
table { border-collapse: collapse; margin-top: 1em; }
td, th { border: 1px solid #999; padding: 2px 8px; text-align: right; }
th { background: #eee; }
.tardy { color: #b00; }
</style></head><body>
<h2>{{.Stats.Policy}} — live web-transaction scheduling</h2>
<p>simulated time {{printf "%.1f" .Stats.Now}} |
submitted {{.Stats.Submitted}}/{{.Stats.N}} |
completed {{.Stats.Completed}} |
misses {{.Stats.Misses}} |
avg tardiness {{printf "%.3f" .Stats.AvgTardiness}} |
max {{printf "%.2f" .Stats.MaxTardiness}}
{{if .Stats.Shed}}| shed {{.Stats.Shed}}{{end}}
{{if .Stats.Aborts}}| aborts {{.Stats.Aborts}}{{end}}
{{if .Stats.Degraded}}| <b class="tardy">degraded</b>{{end}}
{{if .Stats.Done}}| <b>done</b>{{end}}</p>
<table>
<tr><th>txn</th><th>finish</th><th>deadline</th><th>tardiness</th><th>weight</th></tr>
{{range .Recent}}
<tr><td>T{{.ID}}</td><td>{{printf "%.2f" .Finish}}</td><td>{{printf "%.2f" .Deadline}}</td>
<td{{if gt .Tardiness 0.0}} class="tardy"{{end}}>{{printf "%.2f" .Tardiness}}</td>
<td>{{.Weight}}</td></tr>
{{end}}
</table>
</body></html>`))

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	data := struct {
		Stats  statsPayload
		Recent []Completion
	}{s.statsNow(), s.done.snapshot(20)}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// writeJSONStatus answers with status and v as indented JSON. It sets the
// Content-Type before the status line goes out, so no JSON answer is sniffed
// as text/plain. A 200 is left implicit, so an encoding failure can still
// answer 500.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
