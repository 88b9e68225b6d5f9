package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/txn"
)

// TestWindowMetricEscapesLabels: class and mode strings containing `"`, `}`
// or newlines must not corrupt the registered metric name — the label values
// are escaped per the Prometheus exposition rules before splicing.
func TestWindowMetricEscapesLabels(t *testing.T) {
	got := WindowMetric("tardiness", 3, `he"vy}`, "ed\nf")
	if strings.ContainsAny(got, "\n") {
		t.Fatalf("raw newline survived into metric name: %q", got)
	}
	if !strings.Contains(got, `class="he\"vy}"`) {
		t.Errorf("quote not escaped in class label: %q", got)
	}
	if !strings.Contains(got, `mode="ed\nf"`) {
		t.Errorf("newline not escaped in mode label: %q", got)
	}
	// Well-formed names are byte-identical to the historical format.
	if got := WindowMetric("response", 12, "light", "hdf"); got !=
		`asets_window_response{window="0012",class="light",mode="hdf"}` {
		t.Errorf("clean name changed: %q", got)
	}
}

// TestWindowMetricExpositionUnbroken fills a window cell under a hostile
// class name and checks the full exposition stays line-structured: every
// line is a comment or a single sample, and no label value ends a line
// early.
func TestWindowMetricExpositionUnbroken(t *testing.T) {
	reg := NewRegistry()
	observeCell(reg, 0, "bad\"}\nclass", "edf", [numWindowKinds]float64{1.5, 1.5, 1.5})
	observeCell(reg, 0, "bad\"}\nclass", "edf", [numWindowKinds]float64{3, 3, 3})
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d empty — a label value broke the exposition:\n%s", i, buf.String())
		}
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "asets_window_") {
			t.Fatalf("line %d is neither comment nor sample: %q", i, line)
		}
	}
}

// TestEscapeLabel pins the escaping rules: backslash, quote and newline get
// backslash escapes, other control bytes collapse to '_', and clean strings
// come back unchanged (same backing memory, no allocation on the fast path).
func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"light", "light"},
		{"", ""},
		{`a"b`, `a\"b`},
		{`a\b`, `a\\b`},
		{"a\nb", `a\nb`},
		{"a\tb", "a_b"},
		{"a\x00b", "a_b"},
		{"sp ace}", "sp ace}"}, // '}' and spaces are legal inside quoted values
	}
	for _, tc := range cases {
		if got := EscapeLabel(tc.in); got != tc.want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// windowEvents replays one transaction's lifecycle completing at finish.
func windowEvents(b *SpanBuilder, id int, arrive, finish float64) {
	b.Emit(Event{Time: arrive, Kind: KindArrival, Txn: txn.ID(id), Workflow: -1, Deadline: finish + 100})
	b.Emit(Event{Time: arrive, Kind: KindDispatch, Txn: txn.ID(id), Workflow: -1})
	b.Emit(Event{Time: finish, Kind: KindCompletion, Txn: txn.ID(id), Workflow: -1})
}

// TestWindowEmptyWindowsAbsent: windows in which nothing completed register
// no sketch cells — gaps in the series stay gaps instead of zero-count
// noise.
func TestWindowEmptyWindowsAbsent(t *testing.T) {
	set := spanTestSet(t)
	reg := NewRegistry()
	b := NewSpanBuilder(set, SpanOptions{Metrics: reg, Window: 5})
	// Txn 0 (heavy) completes in window 0; nothing lands in windows 1–3;
	// txn 2 (light) completes in window 4.
	windowEvents(b, 0, 0, 4)
	windowEvents(b, 2, 2, 21)
	snap := reg.Snapshot()
	for _, s := range snap.Sketches {
		if !strings.HasPrefix(s.Name, "asets_window_") {
			continue
		}
		for _, empty := range []string{`window="0001"`, `window="0002"`, `window="0003"`} {
			if strings.Contains(s.Name, empty) {
				t.Errorf("empty window registered a cell: %s", s.Name)
			}
		}
	}
}

// TestWindowSingleCompletion: a one-completion window produces cells whose
// count is exactly 1 and whose quantiles all equal the single observation.
func TestWindowSingleCompletion(t *testing.T) {
	set := spanTestSet(t)
	reg := NewRegistry()
	b := NewSpanBuilder(set, SpanOptions{Metrics: reg, Window: 5})
	windowEvents(b, 0, 0, 4) // response 4, alone in window 0
	found := false
	for _, s := range reg.Snapshot().Sketches {
		if s.Name != WindowMetric("response", 0, "heavy", "edf") {
			continue
		}
		found = true
		if s.Count != 1 {
			t.Errorf("%s count %d, want 1", s.Name, s.Count)
		}
		for _, qv := range s.Quantiles {
			if qv.Value < 4*0.99 || qv.Value > 4*1.01 {
				t.Errorf("%s q%v = %v, want the single observation 4 (within sketch accuracy)",
					s.Name, qv.Q, qv.Value)
			}
		}
	}
	if !found {
		t.Fatalf("single-completion window cell missing; sketches: %+v", reg.Snapshot().Sketches)
	}
}

// TestWindowBoundaryCompletionSingleCell: a completion exactly on a window
// boundary lands in exactly one asets_window_* cell (the window it opens),
// never in both neighbours.
func TestWindowBoundaryCompletionSingleCell(t *testing.T) {
	set := spanTestSet(t)
	reg := NewRegistry()
	b := NewSpanBuilder(set, SpanOptions{Metrics: reg, Window: 5})
	windowEvents(b, 0, 0, 5) // finish exactly at the 0/1 boundary
	cells := 0
	for _, s := range reg.Snapshot().Sketches {
		if !strings.HasPrefix(s.Name, "asets_window_response{") {
			continue
		}
		cells++
		if s.Name != WindowMetric("response", 1, "heavy", "edf") {
			t.Errorf("boundary completion landed in %s, want window 0001", s.Name)
		}
		if s.Count != 1 {
			t.Errorf("%s count %d, want 1 (double count across the boundary)", s.Name, s.Count)
		}
	}
	if cells != 1 {
		t.Fatalf("boundary completion produced %d response cells, want exactly 1", cells)
	}
}
