package analysis

import (
	"sort"

	"repro/internal/trace"
	"repro/internal/txn"
)

// BacklogPoint samples the system state at one instant.
type BacklogPoint struct {
	// Time of the sample.
	Time float64
	// Backlog is the number of arrived, unfinished transactions.
	Backlog int
	// Late is the number of arrived, unfinished transactions that have
	// already passed the point of meeting their deadline even if started
	// immediately (t + r > d) — the population EDF's domino effect feeds
	// on (Section III-A.1).
	Late int
}

// BacklogSeries reconstructs the backlog and late-set sizes over time from
// a finished workload and its trace, sampled at `samples` evenly spaced
// instants across the schedule. No simulator instrumentation is needed:
// arrivals and finish times determine the backlog, and per-transaction
// service prefixes determine how much work remained at each sample.
func BacklogSeries(set *txn.Set, rec *trace.Recorder, samples int) []BacklogPoint {
	if samples < 2 || set.Len() == 0 {
		return nil
	}
	var makespan float64
	for _, t := range set.Txns {
		if t.FinishTime > makespan {
			makespan = t.FinishTime
		}
	}
	if makespan == 0 {
		return nil
	}

	// Per-transaction slices sorted by start, for remaining-work queries.
	perTxn := make([][]trace.Slice, set.Len())
	for _, s := range rec.Slices {
		perTxn[s.ID] = append(perTxn[s.ID], s)
	}
	for _, ss := range perTxn {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	remainingAt := func(id txn.ID, at float64) float64 {
		rem := set.ByID(id).Length
		for _, s := range perTxn[id] {
			if s.End <= at {
				rem -= s.Duration()
			} else if s.Start < at {
				rem -= at - s.Start
			} else {
				break
			}
		}
		if rem < 0 {
			rem = 0
		}
		return rem
	}

	out := make([]BacklogPoint, 0, samples)
	for i := 0; i < samples; i++ {
		at := makespan * float64(i) / float64(samples-1)
		p := BacklogPoint{Time: at}
		for _, t := range set.Txns {
			if t.Arrival > at || t.FinishTime <= at {
				continue
			}
			p.Backlog++
			if at+remainingAt(t.ID, at) > t.Deadline {
				p.Late++
			}
		}
		out = append(out, p)
	}
	return out
}

// MeanLateShare returns the average fraction of the backlog that is already
// late, over samples with non-empty backlog. A policy prone to the domino
// effect drags a persistently high late share; ASETS* bounds it by shifting
// late transactions to the SRPT/HDF list.
func MeanLateShare(series []BacklogPoint) float64 {
	var sum float64
	n := 0
	for _, p := range series {
		if p.Backlog == 0 {
			continue
		}
		sum += float64(p.Late) / float64(p.Backlog)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
