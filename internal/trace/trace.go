// Package trace records and validates execution schedules produced by the
// simulator. A trace is the sequence of contiguous execution slices the
// single backend server performed; the validator checks the invariants any
// legal preemptive-resume schedule must satisfy, independent of policy:
//
//   - slices never overlap and never run backwards in time,
//   - no transaction executes before its arrival,
//   - no transaction executes before all its dependencies have finished,
//   - every transaction receives exactly its length of service, and
//   - the recorded finish time equals the end of its last slice.
//
// Under experiments.Options.Validate (asetsbench -validate, and the
// experiment tests) every run of every experiment is checked, except the
// closed-loop sessions experiment, whose engine records no schedule; every
// other figure in EXPERIMENTS.md is backed by mechanically checked
// schedules.
package trace

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/txn"
)

// Slice is one contiguous stretch of service given to a transaction.
type Slice struct {
	ID    txn.ID
	Start float64
	End   float64
}

// Duration returns the service time of the slice.
func (s Slice) Duration() float64 { return s.End - s.Start }

// Recorder accumulates execution slices during a simulation run. The zero
// value is ready to use. The simulator records one slice per running
// transaction per event step, so a slice that continues its transaction's
// latest one is merged into it: a transaction that runs across decision
// points (an arrival that does not change the running set) stays one slice,
// on any number of servers.
type Recorder struct {
	Slices []Slice
	// latest holds, per transaction ID, one past the index of its latest
	// slice (0: none yet).
	latest []int
}

// Record appends a slice, merging it into the transaction's latest slice
// when contiguous. Contiguity is judged within the package tolerance: event
// times accumulate float64 error, so an exact == test would let
// drifted-but-adjacent slices fragment the trace.
func (r *Recorder) Record(id txn.ID, start, end float64) {
	if int(id) < len(r.latest) {
		if i := r.latest[id] - 1; i >= 0 && i < len(r.Slices) && r.Slices[i].ID == id &&
			math.Abs(start-r.Slices[i].End) <= tolerance {
			r.Slices[i].End = end
			return
		}
	} else {
		//lint:ignore hotpath-alloc grows once per new highest transaction ID, amortized like the slices
		r.latest = append(r.latest, make([]int, int(id)+1-len(r.latest))...)
	}
	//lint:ignore hotpath-alloc the trace is the product: one slice per contiguous execution, merged when adjacent
	r.Slices = append(r.Slices, Slice{ID: id, Start: start, End: end})
	r.latest[id] = len(r.Slices)
}

// Reset clears the recorder for reuse.
func (r *Recorder) Reset() {
	r.Slices = r.Slices[:0]
	clear(r.latest)
}

// tolerance absorbs float64 accumulation error across many small slices.
const tolerance = 1e-6

// Validate checks the schedule invariants against the workload for the
// paper's single-server model. The set must be in its post-run state
// (Finished and FinishTime populated). For multi-server schedules use
// ValidateN.
func (r *Recorder) Validate(set *txn.Set) error {
	return r.ValidateN(set, 1)
}

// ValidateN checks the schedule invariants for a run on `servers` identical
// servers: at most `servers` slices may overlap at any instant, a
// transaction never overlaps itself, and all single-server invariants
// (arrival, precedence, exact service, finish times) hold.
func (r *Recorder) ValidateN(set *txn.Set, servers int) error {
	if servers < 1 {
		return fmt.Errorf("trace: servers %d must be positive", servers)
	}
	if err := r.checkConcurrency(servers); err != nil {
		return err
	}
	return r.validateCommon(set)
}

// checkConcurrency sweeps slice boundaries and verifies the number of
// concurrently executing slices never exceeds the server count, and that no
// transaction runs on two servers at once.
func (r *Recorder) checkConcurrency(servers int) error {
	type boundary struct {
		at    float64
		delta int
		id    txn.ID
	}
	events := make([]boundary, 0, 2*len(r.Slices))
	for i, s := range r.Slices {
		if s.End <= s.Start {
			return fmt.Errorf("trace: slice %d (%v) runs backwards or is empty", i, s)
		}
		events = append(events,
			boundary{at: s.Start, delta: +1, id: s.ID},
			boundary{at: s.End, delta: -1, id: s.ID})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		// Ends before starts at the same instant: back-to-back slices on
		// one server are legal.
		return events[i].delta < events[j].delta
	})
	depth := 0
	active := map[txn.ID]int{}
	for _, ev := range events {
		depth += ev.delta
		active[ev.id] += ev.delta
		if depth > servers {
			return fmt.Errorf("trace: %d overlapping slices at time %v exceed %d servers", depth, ev.at, servers)
		}
		if active[ev.id] > 1 {
			return fmt.Errorf("trace: transaction %d executes on two servers at time %v", ev.id, ev.at)
		}
	}
	return nil
}

// validateCommon checks the per-transaction invariants shared by the single
// and multi-server cases.
func (r *Recorder) validateCommon(set *txn.Set) error {
	service := make([]float64, set.Len())
	lastEnd := make([]float64, set.Len())
	finishOf := make([]float64, set.Len())
	for i := range finishOf {
		finishOf[i] = math.Inf(1)
	}

	for i, s := range r.Slices {
		if s.End <= s.Start {
			return fmt.Errorf("trace: slice %d (%v) runs backwards or is empty", i, s)
		}
		t := set.ByID(s.ID)
		if s.Start < t.Arrival-tolerance {
			return fmt.Errorf("trace: transaction %d executed at %v before its arrival %v", s.ID, s.Start, t.Arrival)
		}
		service[s.ID] += s.Duration()
		if s.End > lastEnd[s.ID] {
			lastEnd[s.ID] = s.End
		}
	}

	for _, t := range set.Txns {
		if !t.Finished {
			return fmt.Errorf("trace: transaction %d never finished", t.ID)
		}
		if math.Abs(service[t.ID]-t.Length) > tolerance {
			return fmt.Errorf("trace: transaction %d received %v service, length is %v", t.ID, service[t.ID], t.Length)
		}
		if math.Abs(lastEnd[t.ID]-t.FinishTime) > tolerance {
			return fmt.Errorf("trace: transaction %d last slice ends at %v, finish time recorded as %v", t.ID, lastEnd[t.ID], t.FinishTime)
		}
		finishOf[t.ID] = t.FinishTime
	}

	// Precedence: no slice of a dependent may start before every direct
	// dependency's finish time.
	for _, s := range r.Slices {
		t := set.ByID(s.ID)
		for _, d := range t.Deps {
			if s.Start < finishOf[d]-tolerance {
				return fmt.Errorf("trace: transaction %d started at %v before dependency %d finished at %v",
					s.ID, s.Start, d, finishOf[d])
			}
		}
	}
	return nil
}

// BusyTime returns the total service time in the trace.
func (r *Recorder) BusyTime() float64 {
	var total float64
	for _, s := range r.Slices {
		total += s.Duration()
	}
	return total
}

// Preemptions counts slice boundaries where a transaction was set aside
// unfinished: transitions between different transactions where the earlier
// one reappears later in the trace.
func (r *Recorder) Preemptions(set *txn.Set) int {
	finish := make([]float64, set.Len())
	for _, t := range set.Txns {
		finish[t.ID] = t.FinishTime
	}
	count := 0
	for i := 0; i+1 < len(r.Slices); i++ {
		cur, next := r.Slices[i], r.Slices[i+1]
		if cur.ID != next.ID && cur.End < finish[cur.ID]-tolerance {
			count++
		}
	}
	return count
}

// PerTxnService returns total service per transaction ID, for tests.
func (r *Recorder) PerTxnService(n int) []float64 {
	service := make([]float64, n)
	for _, s := range r.Slices {
		service[s.ID] += s.Duration()
	}
	return service
}

// SortedByStart returns a copy of the slices ordered by start time. The
// recorder already appends in time order during simulation; this helper is
// for defensive consumers and tests.
func (r *Recorder) SortedByStart() []Slice {
	out := make([]Slice, len(r.Slices))
	copy(out, r.Slices)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
