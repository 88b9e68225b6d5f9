package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/txn"
)

// ClosedLoopResult aggregates a closed-loop run.
type ClosedLoopResult struct {
	// Summary holds the standard per-transaction metrics.
	Summary *metrics.Summary
	// PageLatencies holds, per session and page, the time from request to
	// full render.
	PageLatencies [][]float64
	// AbandonRate is the fraction of pages whose render latency exceeded
	// the page's patience bound (see RunClosedLoop's patience parameter).
	AbandonRate float64
}

// RunClosedLoop simulates sessions against a single backend under the given
// policy. Transactions exist up front (the scheduler sees a fixed universe)
// but their arrival times are determined during simulation: all
// transactions of a page arrive when the page is requested, which happens a
// think time after the previous page of the same session finished.
//
// The set's Arrival fields are ignored as absolute times; each
// transaction's Deadline must be stored RELATIVE to its page request (the
// closed-loop generator in the workload package does this). Config.Patience
// is the page-level abandonment bound: a page whose render latency exceeds
// it counts as abandoned (the session still continues — the paper's
// lost-revenue framing needs the rate, and cancelling in-flight work would
// change the offered load mid-run).
//
// The closed-loop model is single-server and fault-free: a Config carrying
// Servers > 1, Faults, Admit or a Recorder is rejected, and Config.SLO is
// ignored. Sink and Metrics work as in Run — the decision loop is
// instrumented at the scheduler boundary. RunClosedLoop runs the Kernel
// from the sessions: it owns the pending page requests and does its page
// bookkeeping over the completions each Advance reports.
func (e *Sim) RunClosedLoop(set *txn.Set, sessions []txn.Session, s sched.Scheduler) (*ClosedLoopResult, error) {
	cfg := e.cfg
	servers, err := cfg.servers()
	switch {
	case err != nil:
		return nil, err
	case servers != 1:
		return nil, fmt.Errorf("sim: closed loop supports a single server, not %d", servers)
	case cfg.Faults != nil || cfg.Admit != nil:
		return nil, fmt.Errorf("sim: closed loop does not support fault injection or admission control")
	case cfg.Recorder != nil:
		return nil, fmt.Errorf("sim: closed loop does not record execution slices")
	}
	if err := validateSessions(set, sessions); err != nil {
		return nil, err
	}
	n := set.Len()
	cfg.SLO = nil
	k, err := NewKernel(cfg, set, s)
	if err != nil {
		return nil, err
	}

	// Arrival and Deadline are rewritten from relative to absolute as pages
	// are issued; restore the originals afterwards so the set can be
	// replayed under another policy.
	orig := make([][2]float64, n)
	for i, t := range set.Txns {
		orig[i] = [2]float64{t.Arrival, t.Deadline}
	}
	defer func() {
		for i, t := range set.Txns {
			t.Arrival, t.Deadline = orig[i][0], orig[i][1]
		}
	}()

	// Each session has at most one page in flight or requested: the next is
	// requested a think time after the last one finished.
	type sessionState struct {
		issued    int     // pages requested so far
		due       float64 // the pending page request's instant, or +Inf
		requested float64 // the latest page's request instant
		remaining int     // its unfinished transactions
	}
	state := make([]sessionState, len(sessions))
	sessionOf := make([]int, n)
	latencies := make([][]float64, len(sessions))
	abandoned, pages := 0, 0
	next := math.Inf(1) // the earliest pending request
	for si, sess := range sessions {
		pages += len(sess.Pages)
		latencies[si] = make([]float64, len(sess.Pages))
		state[si].due = math.Inf(1)
		if len(sess.Pages) > 0 {
			state[si].due = sess.ThinkTimes[0]
		}
		next = min(next, state[si].due)
	}

	for !k.Finished() {
		at, err := k.Next(next)
		if err == nil && math.IsInf(at, 1) {
			err = k.Deadlock()
		}
		if err != nil {
			return nil, err
		}
		// When the last transaction of a page finishes, record the page's
		// latency and schedule the session's next request.
		for _, t := range k.Advance(at) {
			si := sessionOf[t.ID]
			st, sess := &state[si], sessions[si]
			if st.remaining--; st.remaining == 0 {
				lat := at - st.requested
				latencies[si][st.issued-1] = lat
				if cfg.Patience > 0 && lat > cfg.Patience {
					abandoned++
				}
				if st.issued < len(sess.Pages) {
					st.due = at + sess.ThinkTimes[st.issued]
				}
			}
		}
		// Issue every page requested by now, in session order (think times
		// are non-negative, so every due request falls due exactly now): all
		// its transactions arrive.
		next = math.Inf(1)
		for si := range state {
			st := &state[si]
			if st.due <= at {
				page := sessions[si].Pages[st.issued]
				st.issued++
				st.requested, st.remaining, st.due = st.due, len(page), math.Inf(1)
				for _, id := range page {
					t := set.ByID(id)
					t.Arrival = st.requested
					t.Deadline += st.requested // stored relative; now absolute
					sessionOf[id] = si
					k.Arrive(t)
				}
			}
			next = min(next, st.due)
		}
	}

	k.Close()
	summary, err := k.Summary()
	if err != nil {
		return nil, err
	}
	res := &ClosedLoopResult{Summary: summary, PageLatencies: latencies}
	if pages > 0 {
		res.AbandonRate = float64(abandoned) / float64(pages)
	}
	return res, nil
}

// validateSessions checks that the sessions partition the transaction set.
func validateSessions(set *txn.Set, sessions []txn.Session) error {
	seen := make([]bool, set.Len())
	count := 0
	for si, sess := range sessions {
		if len(sess.ThinkTimes) != len(sess.Pages) {
			return fmt.Errorf("sim: session %d has %d pages but %d think times", si, len(sess.Pages), len(sess.ThinkTimes))
		}
		if slices.ContainsFunc(sess.ThinkTimes, func(d float64) bool { return !(d >= 0) }) {
			return fmt.Errorf("sim: session %d has a negative think time", si)
		}
		for pi, page := range sess.Pages {
			if len(page) == 0 {
				return fmt.Errorf("sim: session %d page %d is empty", si, pi)
			}
			for _, id := range page {
				if id < 0 || int(id) >= set.Len() {
					return fmt.Errorf("sim: session %d references unknown transaction %d", si, id)
				}
				if seen[id] {
					return fmt.Errorf("sim: transaction %d appears in two pages", id)
				}
				seen[id] = true
				count++
			}
		}
	}
	if count != set.Len() {
		return fmt.Errorf("sim: sessions cover %d of %d transactions", count, set.Len())
	}
	return nil
}
