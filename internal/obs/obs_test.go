package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindArrival, KindDispatch, KindPreempt, KindCompletion,
		KindDeadlineMiss, KindAging, KindModeSwitch, KindAbort, KindRestart,
		KindStall, KindShed, KindDegradeEnter, KindDegradeExit,
		KindRoute, KindFailover, KindEject, KindRecover,
		KindValidateFail, KindConflictDefer}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
}

func TestKindStringUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Kind(99).String() did not panic")
		}
	}()
	_ = Kind(99).String()
}

func TestEventMarshalStableAndParsable(t *testing.T) {
	ev := Event{Seq: 3, Time: 1.5, Kind: KindCompletion, Txn: 7, Workflow: 2,
		Deadline: 4.25, Remaining: 0, Tardiness: 0.5, Detail: "x"}
	b1, err := ev.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := ev.MarshalJSON()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("marshal not stable: %s vs %s", b1, b2)
	}
	var m map[string]any
	if err := json.Unmarshal(b1, &m); err != nil {
		t.Fatalf("output not valid JSON: %v in %s", err, b1)
	}
	if m["kind"] != "completion" || m["txn"] != float64(7) || m["tardiness"] != 0.5 {
		t.Fatalf("decoded %v", m)
	}
	// Fixed field order: seq leads, t second.
	if !strings.HasPrefix(string(b1), `{"seq":3,"t":1.5,"kind":"completion"`) {
		t.Fatalf("unexpected field order: %s", b1)
	}
}

func TestEventMarshalOmitsInapplicable(t *testing.T) {
	ev := Event{Time: 2, Kind: KindModeSwitch, Txn: -1, Workflow: 4, Detail: "edf->hdf"}
	b, _ := ev.MarshalJSON()
	s := string(b)
	for _, absent := range []string{"deadline", "remaining", "tardiness"} {
		if strings.Contains(s, absent) {
			t.Fatalf("zero field %q serialized: %s", absent, s)
		}
	}
	if !strings.Contains(s, `"wf":4`) || !strings.Contains(s, `"detail":"edf->hdf"`) {
		t.Fatalf("missing payload: %s", s)
	}
}

// TestEventRoundTrip: UnmarshalJSON inverts MarshalJSON, including the -1
// "not applicable" defaults for fields the encoder omits.
func TestEventRoundTrip(t *testing.T) {
	for _, ev := range []Event{
		{Seq: 3, Time: 1.5, Kind: KindCompletion, Txn: 7, Workflow: -1, Tardiness: 0.5},
		{Seq: 9, Time: 2, Kind: KindModeSwitch, Txn: -1, Workflow: 4, Deadline: 3.25, Remaining: 1.75, Detail: "edf->hdf"},
		{Kind: KindArrival, Txn: 0, Workflow: -1},
	} {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var got Event
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != ev {
			t.Fatalf("round trip %s:\n got %+v\nwant %+v", b, got, ev)
		}
	}
	var got Event
	if err := json.Unmarshal([]byte(`{"seq":0,"t":1,"kind":"nope","txn":0}`), &got); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDiscardAndTee(t *testing.T) {
	Discard.Emit(Event{}) // must not panic
	if Tee() != Discard || Tee(nil, Discard) != Discard {
		t.Fatal("empty tee is not Discard")
	}
	r := NewRing(4)
	if Tee(r) != r {
		t.Fatal("single-sink tee not collapsed")
	}
	c := &Collector{}
	both := Tee(r, c)
	both.Emit(Event{Kind: KindArrival, Txn: 1, Workflow: -1})
	if r.Total() != 1 || len(c.Events()) != 1 {
		t.Fatalf("tee did not fan out: ring=%d collector=%d", r.Total(), len(c.Events()))
	}
}

func TestRingRetainsNewest(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: KindArrival, Txn: 0, Workflow: -1, Time: float64(i)})
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
	snap := r.Snapshot(0)
	if len(snap) != 3 {
		t.Fatalf("retained %d", len(snap))
	}
	for i, want := range []float64{4, 3, 2} {
		if snap[i].Time != want {
			t.Fatalf("snapshot[%d].Time = %v, want %v (%v)", i, snap[i].Time, want, snap)
		}
	}
	if snap[0].Seq != 4 {
		t.Fatalf("newest seq = %d", snap[0].Seq)
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].Time != 4 {
		t.Fatalf("limited snapshot = %v", got)
	}
	if got := r.Snapshot(100); len(got) != 3 {
		t.Fatalf("oversized limit returned %d", len(got))
	}
}

func TestRingEmptySnapshot(t *testing.T) {
	r := NewRing(8)
	if got := r.Snapshot(10); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
}

func TestNewRingRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestCollectorSequencesInOrder(t *testing.T) {
	c := &Collector{}
	for i := 0; i < 4; i++ {
		c.Emit(Event{Kind: KindDispatch, Txn: 0, Workflow: -1, Time: float64(i)})
	}
	evs := c.Events()
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Time != float64(i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestJSONLWriterDeterministic(t *testing.T) {
	emitAll := func() string {
		var buf bytes.Buffer
		jw := NewJSONLWriter(&buf)
		jw.Emit(Event{Time: 0.5, Kind: KindArrival, Txn: 0, Workflow: -1, Deadline: 3})
		jw.Emit(Event{Time: 0.5, Kind: KindDispatch, Txn: 0, Workflow: -1, Remaining: 1.25})
		jw.Emit(Event{Time: 1.75, Kind: KindCompletion, Txn: 0, Workflow: -1})
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := emitAll(), emitAll()
	if a != b {
		t.Fatalf("streams differ:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid: %v", i, err)
		}
		if m["seq"] != float64(i) {
			t.Fatalf("line %d seq = %v", i, m["seq"])
		}
	}
}

// failWriter errors after n successful writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestJSONLWriterStickyError(t *testing.T) {
	jw := NewJSONLWriter(&failWriter{})
	for i := 0; i < 100; i++ { // overflow the bufio buffer to force a write
		jw.Emit(Event{Time: float64(i), Kind: KindArrival, Txn: 0, Workflow: -1,
			Detail: strings.Repeat("x", 100)})
	}
	if err := jw.Flush(); err == nil {
		t.Fatal("flush after failed write returned nil")
	}
	if err := jw.Flush(); err == nil {
		t.Fatal("a second Flush lost the sticky error")
	}
}

// TestReadJSONLRoundTrip: ReadJSONL is the exact inverse of JSONLWriter —
// the contract the post-run report generator (cmd/asetsreport) relies on.
func TestReadJSONLRoundTrip(t *testing.T) {
	evs := []Event{
		{Time: 1, Kind: KindArrival, Txn: 3, Workflow: -1, Deadline: 9, Remaining: 2},
		{Time: 4.5, Kind: KindCompletion, Txn: 3, Workflow: -1, Deadline: 9, Tardiness: 0.5},
		{Time: 5, Kind: KindAlertFire, Txn: -1, Workflow: -1, Deadline: 3.2, Detail: "light/burn"},
	}
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	for _, ev := range evs {
		jw.Emit(ev)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	// A blank line must be tolerated (hand-edited captures).
	buf.WriteString("\n")

	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("read %d events, want %d", len(got), len(evs))
	}
	for i, ev := range evs {
		ev.Seq = uint64(i) // the writer stamps sequence numbers
		if got[i] != ev {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], ev)
		}
	}
}

func TestReadJSONLMalformedLine(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"seq\":0,\"t\":1,\"kind\":\"arrival\",\"txn\":0}\n{broken\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line error = %v, want line 2", err)
	}
}
