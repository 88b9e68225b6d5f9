package server

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/txn"
)

// ClusterServer hosts a live fault-tolerant fleet replay (cluster.Fleet)
// behind the same observable surface as the single-backend Server: routed
// decision events on /events and /events/stream, failover counters on
// /metrics, fleet state on /api/stats — plus the per-instance circuit-breaker
// detail on /healthz that a single backend has no use for. It is an
// http.Handler; Start launches the replay exactly once.
type ClusterServer struct {
	*replay
	set       *txn.Set
	fleet     *cluster.Fleet
	route     string
	schedName string
	instances int
	timeScale time.Duration
}

// NewCluster prepares a live replay of set across cfg.Instances fault
// domains. The server tees its event ring and SSE hub into cfg.Sink (a
// caller's own sink keeps working alongside) and backs /metrics with
// cfg.Metrics, creating a registry when the caller brought none.
func NewCluster(cfg cluster.Config, set *txn.Set, opts cluster.FleetOptions) *ClusterServer {
	s := &ClusterServer{
		replay:    newReplay(cfg.Metrics, set),
		set:       set,
		route:     "rr", // the engine's default when cfg.Policy is nil
		instances: cfg.Instances,
		timeScale: opts.TimeScale,
	}
	if cfg.Policy != nil {
		s.route = cfg.Policy.Name()
	}
	if cfg.NewScheduler != nil {
		s.schedName = cfg.NewScheduler().Name()
	}
	if s.timeScale <= 0 {
		s.timeScale = executor.DefaultTimeScale
	}
	cfg.Metrics = s.reg
	cfg.Sink = obs.Tee(cfg.Sink, s.ring, s.sse)
	s.fleet = cluster.NewFleet(cfg, set, opts)
	s.run = func(ctx context.Context) error {
		_, err := s.fleet.Run(ctx)
		return err
	}

	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/fleet", s.handleFleet)
	s.mux.HandleFunc("POST /api/submit", s.handleSubmit)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// clusterStatsPayload is the cluster /api/stats response document; the
// embedded FleetStatus flattens into it.
type clusterStatsPayload struct {
	Route     string `json:"route"`
	Scheduler string `json:"scheduler"`
	N         int    `json:"n"`
	Healthy   int    `json:"healthy"`
	cluster.FleetStatus
}

func (s *ClusterServer) handleStats(w http.ResponseWriter, r *http.Request) {
	fs := s.fleet.Status()
	writeJSON(w, clusterStatsPayload{
		Route:       s.route,
		Scheduler:   s.schedName,
		N:           s.set.Len(),
		Healthy:     fs.Healthy(),
		FleetStatus: fs,
	})
}

// handleFleet serves GET /api/fleet: the aggregate SLO rollup of the fleet —
// per-instance burn ratios, error-budget remainders and alert counts next to
// each fault domain's circuit-breaker state. Enabled is false when the run
// carries no SLO configuration (docs/OBSERVABILITY.md, "SLOs and alerting").
func (s *ClusterServer) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.fleet.Health())
}

// clusterHealthPayload is the cluster /healthz response document: the
// circuit-breaker state of every fault domain, plus the fleet SLO rollup's
// degradation verdict when SLOs are configured.
type clusterHealthPayload struct {
	Status    string                   `json:"status"` // "ok" | "degraded"
	Healthy   int                      `json:"healthy"`
	Burning   bool                     `json:"burning,omitempty"`
	Instances []cluster.InstanceStatus `json:"instances"`
}

// handleHealth serves GET /healthz with per-instance detail. The whole-fleet
// view is 503 "degraded" when no instance accepts work, or — with SLOs
// configured — when any instance is burning its fast error-budget window
// (cluster.FleetHealth.Degraded); ?instance=N narrows to one fault domain,
// 503 when that instance is ejected — the probe a per-instance load balancer
// check would use.
func (s *ClusterServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	fs := s.fleet.Status()
	if raw := r.URL.Query().Get("instance"); raw != "" {
		idx, err := strconv.Atoi(raw)
		if err != nil || idx < 0 || idx >= len(fs.Instances) {
			http.Error(w, "healthz: instance must be in [0, "+strconv.Itoa(len(fs.Instances))+")", http.StatusBadRequest)
			return
		}
		is := fs.Instances[idx]
		status := http.StatusOK
		if is.State == "ejected" {
			status = http.StatusServiceUnavailable
		}
		writeJSONStatus(w, status, is)
		return
	}
	p := clusterHealthPayload{Status: "ok", Healthy: fs.Healthy(), Instances: fs.Instances}
	if p.Instances == nil {
		// Before the run starts the board is empty; report the
		// configured width so probes never mistake "not started" for "down".
		p.Instances = []cluster.InstanceStatus{}
		p.Healthy = s.instances
	}
	if fh := s.fleet.Health(); fh.Enabled && fh.Degraded {
		p.Burning = true
	}
	status := http.StatusOK
	if p.Healthy == 0 || p.Burning {
		p.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	writeJSONStatus(w, status, p)
}

// clusterSubmitDecision is the cluster POST /api/submit response document: a
// health-gated placement preview. The engine's routing policy owns real
// placement; the preview reports whether any fault domain would accept the
// work right now and which healthy instance carries the least backlog.
type clusterSubmitDecision struct {
	Admitted bool    `json:"admitted"`
	Instance int     `json:"instance"` // -1 when rejected
	Healthy  int     `json:"healthy"`
	Now      float64 `json:"now"`
}

func (s *ClusterServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	fs := s.fleet.Status()
	resp := clusterSubmitDecision{Instance: -1, Healthy: fs.Healthy(), Now: fs.Now}
	if fs.Instances == nil {
		resp.Healthy = s.instances
		resp.Instance = 0
	}
	best := math.Inf(1)
	for _, is := range fs.Instances {
		if is.State == "ejected" {
			continue
		}
		if load := is.Backlog + float64(is.Queued); load < best {
			best, resp.Instance = load, is.Index
		}
	}
	if resp.Healthy == 0 {
		// Every fault domain is ejected; retry after a cooldown's worth of
		// wall-clock time (at least 1s so the header is meaningful).
		secs := math.Ceil(s.timeScale.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(secs)))
		writeJSONStatus(w, http.StatusServiceUnavailable, resp)
		return
	}
	resp.Admitted = true
	writeJSONStatus(w, http.StatusAccepted, resp)
}
