package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// Timeline export: Chrome trace-event JSON (the `trace_event` format that
// chrome://tracing and Perfetto's legacy loader understand). One simulated
// time unit maps to one displayed millisecond — trace-event timestamps are
// microseconds, so ts = simTime * 1000.
//
// Layout: pid 1 is the scheduled system. tid 0 is the "scheduler decisions"
// lane, carrying every decision event as an instant marker; tids 1..S are
// server lanes carrying the execution slices as complete ("X") events.
// Single-server traces use one lane; multi-server traces are assigned lanes
// greedily so overlapping slices never share one.

// timelineEvent is one trace-event record. Field order is fixed and args
// maps marshal with sorted keys, so exports are byte-stable.
type timelineEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	Scope string         `json:"s,omitempty"`
	ID    int            `json:"id,omitempty"`
	Bind  string         `json:"bp,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type timelineDoc struct {
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	TraceEvents     []timelineEvent `json:"traceEvents"`
}

// simToTs converts simulated time to trace-event microseconds (1 sim unit
// displayed as 1 ms).
func simToTs(t float64) float64 { return t * 1000 }

// WriteTimelineFlows renders the recorded execution slices and the decision
// event stream as one loadable timeline (either may be empty) and, when
// spans are given, connects workflow parent→child pairs with Perfetto flow
// events: a flow starts ("s") where the parent's last execution slice ends
// and finishes ("f") where the child's first slice begins, so tardiness
// propagating through a workflow DAG is visible as arrows across server
// lanes. Spans whose endpoints have no recorded slices contribute no flows.
func WriteTimelineFlows(w io.Writer, slices []trace.Slice, events []Event, spans []*Span) error {
	ordered := make([]trace.Slice, len(slices))
	copy(ordered, slices)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].ID < ordered[j].ID
	})

	// Greedy lane assignment: a slice goes to the first lane free at its
	// start instant. The small epsilon absorbs float drift on back-to-back
	// slice boundaries.
	const laneEpsilon = 1e-9
	var laneEnds []float64
	laneOf := make([]int, len(ordered))
	for i, s := range ordered {
		lane := -1
		for l, end := range laneEnds {
			if end <= s.Start+laneEpsilon {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnds)
			laneEnds = append(laneEnds, 0)
		}
		laneEnds[lane] = s.End
		laneOf[i] = lane
	}

	doc := timelineDoc{DisplayTimeUnit: "ms"}
	doc.TraceEvents = append(doc.TraceEvents, timelineEvent{
		Name: "process_name", Phase: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "asets"},
	}, timelineEvent{
		Name: "thread_name", Phase: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "scheduler decisions"},
	})
	for l := range laneEnds {
		doc.TraceEvents = append(doc.TraceEvents, timelineEvent{
			Name: "thread_name", Phase: "M", Pid: 1, Tid: l + 1,
			Args: map[string]any{"name": fmt.Sprintf("server %d", l+1)},
		})
	}

	for i, s := range ordered {
		doc.TraceEvents = append(doc.TraceEvents, timelineEvent{
			Name:  fmt.Sprintf("T%d", int(s.ID)),
			Cat:   "slice",
			Phase: "X",
			Pid:   1,
			Tid:   laneOf[i] + 1,
			Ts:    simToTs(s.Start),
			Dur:   simToTs(s.Duration()),
			Args:  map[string]any{"txn": int(s.ID)},
		})
	}

	// Flow events bind to slices, so they need each transaction's first and
	// last slice with its lane.
	if len(spans) > 0 && len(ordered) > 0 {
		type endpoint struct {
			lane int
			t    float64
		}
		first := make(map[int]endpoint, len(ordered))
		last := make(map[int]endpoint, len(ordered))
		for i, s := range ordered {
			id := int(s.ID)
			if _, seen := first[id]; !seen {
				first[id] = endpoint{laneOf[i], s.Start}
			}
			if e, seen := last[id]; !seen || s.End > e.t {
				last[id] = endpoint{laneOf[i], s.End}
			}
		}
		flowID := 0
		for _, sp := range spans {
			from, ok := last[int(sp.Txn)]
			if !ok {
				continue
			}
			for _, child := range sp.Children {
				to, ok := first[int(child)]
				if !ok {
					continue
				}
				flowID++
				name := fmt.Sprintf("dep T%d->T%d", int(sp.Txn), int(child))
				args := map[string]any{"parent": int(sp.Txn), "child": int(child), "wf": sp.Workflow}
				doc.TraceEvents = append(doc.TraceEvents, timelineEvent{
					Name: name, Cat: "flow", Phase: "s", ID: flowID,
					Pid: 1, Tid: from.lane + 1, Ts: simToTs(from.t), Args: args,
				}, timelineEvent{
					Name: name, Cat: "flow", Phase: "f", ID: flowID, Bind: "e",
					Pid: 1, Tid: to.lane + 1, Ts: simToTs(to.t), Args: args,
				})
			}
		}
	}

	for _, ev := range events {
		args := map[string]any{"seq": ev.Seq}
		if ev.Txn >= 0 {
			args["txn"] = int(ev.Txn)
		}
		if ev.Workflow >= 0 {
			args["wf"] = ev.Workflow
		}
		if ev.Tardiness != 0 {
			args["tardiness"] = ev.Tardiness
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		name := ev.Kind.String()
		if ev.Txn >= 0 {
			name = fmt.Sprintf("%s T%d", name, int(ev.Txn))
		}
		doc.TraceEvents = append(doc.TraceEvents, timelineEvent{
			Name:  name,
			Cat:   "decision",
			Phase: "i",
			Scope: "t",
			Pid:   1,
			Tid:   0,
			Ts:    simToTs(ev.Time),
			Args:  args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
