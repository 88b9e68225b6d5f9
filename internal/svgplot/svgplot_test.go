package svgplot

import (
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/report"
)

func sample() *report.Figure {
	f := &report.Figure{
		ID:     "fig10",
		Title:  "Normalized <tardiness> & more",
		XLabel: "utilization",
		YLabel: "ratio",
		X:      []float64{0.1, 0.5, 1.0},
	}
	f.AddSeries("ASETS*/EDF", []float64{1, 0.7, 0.4}, nil)
	f.AddSeries("ASETS*/SRPT", []float64{0.4, 0.6, 0.95}, nil)
	return f
}

func render(t *testing.T, fig *report.Figure) string {
	t.Helper()
	var b strings.Builder
	if err := Render(&b, fig); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRenderWellFormedXML(t *testing.T) {
	out := render(t, sample())
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("output is not well-formed XML: %v", err)
		}
	}
}

func TestRenderContainsParts(t *testing.T) {
	out := render(t, sample())
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "circle",
		"ASETS*/EDF", "ASETS*/SRPT", "utilization", "ratio",
		"&lt;tardiness&gt; &amp; more", // escaping
	} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if got := strings.Count(out, "<polyline"); got != 2 {
		t.Errorf("polylines = %d, want 2", got)
	}
}

func TestRenderFlatSeries(t *testing.T) {
	f := &report.Figure{ID: "f", XLabel: "x", YLabel: "y", X: []float64{1, 2}}
	f.AddSeries("s", []float64{5, 5}, nil)
	out := render(t, f)
	if !strings.Contains(out, "<polyline") {
		t.Error("flat series render failed")
	}
}

func TestRenderEmptyFigureFails(t *testing.T) {
	var b strings.Builder
	if err := Render(&b, &report.Figure{ID: "e"}); err == nil {
		t.Error("empty figure accepted")
	}
}

func TestCompactFormatting(t *testing.T) {
	cases := map[float64]string{
		2500000: "2.5M",
		50000:   "50k",
		123:     "123",
		4.2:     "4.2",
		0.05:    "0.050",
	}
	for in, want := range cases {
		if got := compact(in); got != want {
			t.Errorf("compact(%v) = %q, want %q", in, got, want)
		}
	}
}
