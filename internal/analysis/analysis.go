// Package analysis post-processes simulation traces into the diagnostics a
// scheduling researcher reaches for when a figure looks off: busy/idle
// period structure, per-class tardiness breakdowns (dependent versus
// independent transactions, weight classes), wait-time decompositions
// (dependency wait versus queueing wait), and an ASCII Gantt view of small
// schedules.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/txn"
)

// Period is a contiguous busy or idle stretch of the backend server.
type Period struct {
	Start float64
	End   float64
	Busy  bool
}

// Periods reconstructs the alternating busy/idle structure of a schedule
// from its execution slices (which the simulator records in time order).
func Periods(rec *trace.Recorder) []Period {
	slices := rec.SortedByStart()
	if len(slices) == 0 {
		return nil
	}
	var out []Period
	cur := Period{Start: slices[0].Start, End: slices[0].End, Busy: true}
	for _, s := range slices[1:] {
		if s.Start > cur.End {
			out = append(out, cur)
			out = append(out, Period{Start: cur.End, End: s.Start, Busy: false})
			cur = Period{Start: s.Start, End: s.End, Busy: true}
			continue
		}
		if s.End > cur.End {
			cur.End = s.End
		}
	}
	out = append(out, cur)
	return out
}

// ClassStats aggregates tardiness over one transaction class.
type ClassStats struct {
	Class        string
	N            int
	AvgTardiness float64
	MaxTardiness float64
	MissRatio    float64
}

// ByDependency splits the finished workload into independent and dependent
// transaction classes — the split that exposes where the workflow-level
// boost of ASETS* lands (see EXPERIMENTS.md).
func ByDependency(set *txn.Set) []ClassStats {
	classify := func(t *txn.Transaction) string {
		if t.Independent() {
			return "independent"
		}
		return "dependent"
	}
	return byClass(set, classify)
}

func byClass(set *txn.Set, classify func(*txn.Transaction) string) []ClassStats {
	agg := map[string]*ClassStats{}
	for _, t := range set.Txns {
		c := classify(t)
		st, ok := agg[c]
		if !ok {
			st = &ClassStats{Class: c}
			agg[c] = st
		}
		st.N++
		tard := t.Tardiness()
		st.AvgTardiness += tard
		if tard > st.MaxTardiness {
			st.MaxTardiness = tard
		}
		if tard > 0 {
			st.MissRatio++
		}
	}
	out := make([]ClassStats, 0, len(agg))
	//lint:ignore maprange per-class rows are sorted by class immediately below
	for _, st := range agg {
		if st.N > 0 {
			st.AvgTardiness /= float64(st.N)
			st.MissRatio /= float64(st.N)
		}
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// WaitBreakdown decomposes one transaction's time in system into dependency
// wait (arrival until its last dependency finished), queueing wait (ready
// but not executing), and service.
type WaitBreakdown struct {
	ID       txn.ID
	DepWait  float64
	Queueing float64
	Service  float64
}

// Waits computes the breakdown for every transaction from a validated trace.
func Waits(set *txn.Set, rec *trace.Recorder) []WaitBreakdown {
	service := rec.PerTxnService(set.Len())
	out := make([]WaitBreakdown, set.Len())
	for _, t := range set.Txns {
		ready := t.Arrival
		for _, d := range t.Deps {
			if f := set.ByID(d).FinishTime; f > ready {
				ready = f
			}
		}
		w := WaitBreakdown{ID: t.ID, Service: service[t.ID]}
		w.DepWait = ready - t.Arrival
		w.Queueing = (t.FinishTime - ready) - w.Service
		if w.Queueing < 0 {
			w.Queueing = 0 // float64 slack on adjacent events
		}
		out[t.ID] = w
	}
	return out
}

// SummarizeWaits averages the per-transaction breakdowns.
func SummarizeWaits(waits []WaitBreakdown) (depWait, queueing, service float64) {
	if len(waits) == 0 {
		return 0, 0, 0
	}
	for _, w := range waits {
		depWait += w.DepWait
		queueing += w.Queueing
		service += w.Service
	}
	n := float64(len(waits))
	return depWait / n, queueing / n, service / n
}

// Gantt renders an ASCII Gantt chart of a small schedule: one row per
// transaction, one column per time unit (scaled to width). Intended for
// traces of at most a few dozen transactions — examples and debugging, not
// the 1000-transaction experiment runs.
func Gantt(set *txn.Set, rec *trace.Recorder, width int) string {
	if set.Len() == 0 || len(rec.Slices) == 0 {
		return "(empty schedule)\n"
	}
	if width < 20 {
		width = 20
	}
	var makespan float64
	for _, s := range rec.Slices {
		if s.End > makespan {
			makespan = s.End
		}
	}
	scale := float64(width) / makespan

	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %.1f (one column = %.2f time units)\n", makespan, makespan/float64(width))
	for _, t := range set.Txns {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range rec.Slices {
			if s.ID != t.ID {
				continue
			}
			lo := int(s.Start * scale)
			hi := int(s.End * scale)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = '#'
			}
		}
		// Mark arrival and deadline.
		if a := int(t.Arrival * scale); a < width && row[a] == '.' {
			row[a] = 'a'
		}
		if d := int(t.Deadline * scale); d < width {
			if row[d] == '.' || row[d] == 'a' {
				row[d] = 'd'
			} else {
				row[d] = 'D' // deadline inside an execution slice
			}
		}
		status := "on time"
		if tard := t.Tardiness(); tard > 0 {
			status = fmt.Sprintf("tardy %.1f", tard)
		}
		fmt.Fprintf(&b, "T%-4d |%s| %s\n", t.ID, row, status)
	}
	b.WriteString("legend: # running, a arrival, d deadline, D deadline during run\n")
	return b.String()
}
