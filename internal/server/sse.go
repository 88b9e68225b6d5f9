package server

import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// spanRing bounds the closed spans retained for /api/spans.
const spanRing = 1024

// spanWindow is the tumbling-window width (simulated time units) of the
// server's windowed percentile sketches on /metrics.
const spanWindow = 100.0

// sseBuffer is the per-subscriber event buffer. A subscriber that falls
// behind a full buffer has events dropped (never blocking the executor);
// drops are counted in asets_sse_dropped_total.
const sseBuffer = 256

// sseHub is a Sink that broadcasts every decision event to the connected
// /events/stream subscribers. Sends never block: the executor goroutine
// stays real-time even with stuck clients.
type sseHub struct {
	mu      sync.Mutex
	subs    map[chan obs.Event]struct{} // guarded by mu
	seq     uint64                      // guarded by mu
	dropped *obs.Counter                // handle set once at construction; the counter itself is atomic
}

func newSSEHub(reg *obs.Registry) *sseHub {
	h := &sseHub{subs: make(map[chan obs.Event]struct{})}
	if reg != nil {
		h.dropped = reg.Counter("asets_sse_dropped_total", "events dropped on slow /events/stream subscribers")
	}
	return h
}

// Emit implements obs.Sink.
func (h *sseHub) Emit(ev obs.Event) {
	h.mu.Lock()
	ev.Seq = h.seq
	h.seq++
	//lint:ignore maprange subscriber fan-out order is irrelevant: every subscriber gets every event
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
			if h.dropped != nil {
				h.dropped.Inc()
			}
		}
	}
	h.mu.Unlock()
}

func (h *sseHub) subscribe() chan obs.Event {
	ch := make(chan obs.Event, sseBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *sseHub) unsubscribe(ch chan obs.Event) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// handleEventStream serves GET /events/stream: a Server-Sent Events feed of
// the live decision stream, one `event: decision` frame per obs.Event with
// the byte-stable JSON encoding as its data. The stream ends when the client
// disconnects or when the replay finishes (after the buffer drains).
func (s *Server) handleEventStream(w http.ResponseWriter, r *http.Request) {
	streamEvents(w, r, s.sse, s.done)
}

// streamEvents is the SSE loop shared by the single-backend Server and the
// ClusterServer: subscribe to hub, relay until the client disconnects or
// done closes (then drain and send a terminal `event: done` frame).
func streamEvents(w http.ResponseWriter, r *http.Request, hub *sseHub, done <-chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch := hub.subscribe()
	defer hub.unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": asets decision stream\n\n")
	fl.Flush()

	write := func(ev obs.Event) bool {
		b, err := ev.MarshalJSON()
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: decision\ndata: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if !write(ev) {
				return
			}
		case <-done:
			// Replay over: flush anything still buffered, then end the
			// stream so clients see EOF instead of an idle hang.
			for {
				select {
				case ev := <-ch:
					if !write(ev) {
						return
					}
				default:
					fmt.Fprint(w, "event: done\ndata: {}\n\n")
					fl.Flush()
					return
				}
			}
		}
	}
}

// spansPayload is the /api/spans response document.
type spansPayload struct {
	Total uint64     `json:"total"`
	Spans []obs.Span `json:"spans"` // newest first
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	limit, err := parseLimit(r, 50, spanRing)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, spansPayload{Total: s.spans.Total(), Spans: s.spans.Snapshot(limit)})
}
