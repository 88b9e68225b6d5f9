package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/trace"
	"repro/internal/txn"
)

// decodeTimeline parses an export back into its generic JSON form.
func decodeTimeline(t *testing.T, b []byte) (string, []map[string]any) {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid timeline JSON: %v", err)
	}
	return doc.DisplayTimeUnit, doc.TraceEvents
}

func sampleInputs() ([]trace.Slice, []Event) {
	slices := []trace.Slice{
		{ID: 0, Start: 0, End: 2},
		{ID: 1, Start: 2, End: 3.5},
		{ID: 0, Start: 3.5, End: 4},
	}
	events := []Event{
		{Seq: 0, Time: 0, Kind: KindArrival, Txn: 0, Workflow: -1},
		{Seq: 1, Time: 0, Kind: KindDispatch, Txn: 0, Workflow: -1},
		{Seq: 2, Time: 2, Kind: KindModeSwitch, Txn: -1, Workflow: 3, Detail: "edf->hdf"},
		{Seq: 3, Time: 4, Kind: KindCompletion, Txn: 0, Workflow: -1, Tardiness: 1.5},
	}
	return slices, events
}

func TestWriteTimelineStructure(t *testing.T) {
	slices, events := sampleInputs()
	var buf bytes.Buffer
	if err := WriteTimelineFlows(&buf, slices, events, nil); err != nil {
		t.Fatal(err)
	}
	unit, evs := decodeTimeline(t, buf.Bytes())
	if unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", unit)
	}
	var slicesSeen, decisionsSeen int
	for _, ev := range evs {
		switch ev["cat"] {
		case "slice":
			slicesSeen++
			if ev["ph"] != "X" || ev["tid"].(float64) < 1 {
				t.Fatalf("bad slice event %v", ev)
			}
		case "decision":
			decisionsSeen++
			if ev["ph"] != "i" || ev["tid"].(float64) != 0 {
				t.Fatalf("bad decision event %v", ev)
			}
		}
	}
	if slicesSeen != 3 || decisionsSeen != 4 {
		t.Fatalf("slices=%d decisions=%d", slicesSeen, decisionsSeen)
	}
	// 1 sim unit = 1000 trace microseconds.
	for _, ev := range evs {
		if ev["cat"] == "decision" && ev["name"] == "completion T0" {
			if ev["ts"].(float64) != 4000 {
				t.Fatalf("completion ts = %v", ev["ts"])
			}
		}
	}
}

func TestWriteTimelineSingleServerUsesOneLane(t *testing.T) {
	slices, _ := sampleInputs()
	var buf bytes.Buffer
	if err := WriteTimelineFlows(&buf, slices, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, evs := decodeTimeline(t, buf.Bytes())
	for _, ev := range evs {
		if ev["cat"] == "slice" && ev["tid"].(float64) != 1 {
			t.Fatalf("non-overlapping slices split across lanes: %v", ev)
		}
	}
}

func TestWriteTimelineOverlapGetsDistinctLanes(t *testing.T) {
	slices := []trace.Slice{
		{ID: 0, Start: 0, End: 4},
		{ID: 1, Start: 1, End: 3}, // overlaps T0: a second server
	}
	var buf bytes.Buffer
	if err := WriteTimelineFlows(&buf, slices, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, evs := decodeTimeline(t, buf.Bytes())
	lanes := map[float64]bool{}
	for _, ev := range evs {
		if ev["cat"] == "slice" {
			lanes[ev["tid"].(float64)] = true
		}
	}
	if len(lanes) != 2 {
		t.Fatalf("overlapping slices share lanes: %v", lanes)
	}
}

func TestWriteTimelineDeterministic(t *testing.T) {
	slices, events := sampleInputs()
	render := func() string {
		var buf bytes.Buffer
		if err := WriteTimelineFlows(&buf, slices, events, nil); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("timeline export not byte-stable:\n%s\nvs\n%s", a, b)
	}
}

func TestWriteTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimelineFlows(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, evs := decodeTimeline(t, buf.Bytes())
	// Only the process/scheduler metadata records remain.
	for _, ev := range evs {
		if ev["ph"] != "M" {
			t.Fatalf("unexpected event in empty export: %v", ev)
		}
	}
}

func TestWriteTimelineFlows(t *testing.T) {
	// T0 runs twice (finishing at 4), then its dependent T1 runs at 2..3.5?
	// No — flows need the child to start after the parent's last slice, so
	// use a dedicated layout: T0 at [0,2], T1 at [3,5].
	slices := []trace.Slice{
		{ID: 0, Start: 0, End: 2},
		{ID: 1, Start: 3, End: 5},
	}
	spans := []*Span{
		{Txn: 0, Workflow: 7, Children: []txn.ID{1}},
		{Txn: 1, Workflow: 7, Parents: []txn.ID{0}},
	}
	var buf bytes.Buffer
	if err := WriteTimelineFlows(&buf, slices, nil, spans); err != nil {
		t.Fatal(err)
	}
	_, evs := decodeTimeline(t, buf.Bytes())
	var start, finish map[string]any
	for _, ev := range evs {
		if ev["cat"] == "flow" {
			switch ev["ph"] {
			case "s":
				start = ev
			case "f":
				finish = ev
			}
		}
	}
	if start == nil || finish == nil {
		t.Fatalf("flow pair missing from export: %s", buf.Bytes())
	}
	if start["id"] != finish["id"] {
		t.Fatalf("flow ids differ: %v vs %v", start["id"], finish["id"])
	}
	if start["ts"].(float64) != 2000 || finish["ts"].(float64) != 3000 {
		t.Fatalf("flow endpoints at %v and %v, want parent end 2000 and child start 3000", start["ts"], finish["ts"])
	}
	if finish["bp"] != "e" {
		t.Fatalf("flow finish lacks bp=e: %v", finish)
	}
	if start["name"] != "dep T0->T1" || finish["name"] != "dep T0->T1" {
		t.Fatalf("flow names %v / %v", start["name"], finish["name"])
	}
}

func TestWriteTimelineWithoutSpansHasNoFlows(t *testing.T) {
	slices, events := sampleInputs()
	var buf bytes.Buffer
	if err := WriteTimelineFlows(&buf, slices, events, nil); err != nil {
		t.Fatal(err)
	}
	_, evs := decodeTimeline(t, buf.Bytes())
	for _, ev := range evs {
		if ev["cat"] == "flow" {
			t.Fatalf("flow event present without spans: %v", ev)
		}
	}
}
