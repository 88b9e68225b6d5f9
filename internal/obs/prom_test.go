package obs

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
)

// parseProm extracts sample lines (name{labels} value) from exposition text.
func parseProm(t *testing.T, text string) map[string]string {
	t.Helper()
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		out[line[:i]] = line[i+1:]
	}
	return out
}

func TestWritePrometheusSamples(t *testing.T) {
	r := NewRegistry()
	r.Counter("asets_completions_total", "completed transactions").Add(42)
	r.Gauge("asets_sim_now", "current simulated time").Set(12.25)
	h := r.Histogram("asets_tardiness", "tardiness of completed transactions")
	h.Observe(0)
	h.Observe(0)
	h.Observe(1.5)
	h.Observe(5)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples := parseProm(t, text)

	if samples["asets_completions_total"] != "42" {
		t.Fatalf("counter sample = %q", samples["asets_completions_total"])
	}
	if samples["asets_sim_now"] != "12.25" {
		t.Fatalf("gauge sample = %q", samples["asets_sim_now"])
	}
	if samples["asets_tardiness_count"] != "4" {
		t.Fatalf("count = %q", samples["asets_tardiness_count"])
	}
	sum, err := strconv.ParseFloat(samples["asets_tardiness_sum"], 64)
	if err != nil || sum != 6.5 {
		t.Fatalf("sum = %q (%v)", samples["asets_tardiness_sum"], err)
	}
	// Cumulative buckets: le="0" holds the two zero observations; the +Inf
	// bucket equals the total count.
	if samples[`asets_tardiness_bucket{le="0"}`] != "2" {
		t.Fatalf("zero bucket = %q", samples[`asets_tardiness_bucket{le="0"}`])
	}
	if samples[`asets_tardiness_bucket{le="+Inf"}`] != "4" {
		t.Fatalf("+Inf bucket = %q", samples[`asets_tardiness_bucket{le="+Inf"}`])
	}
	// Cumulative counts never decrease across ascending edges.
	prev := -1
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "asets_tardiness_bucket") {
			continue
		}
		v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %s", text)
		}
		prev = v
	}
	for _, header := range []string{
		"# TYPE asets_completions_total counter",
		"# TYPE asets_sim_now gauge",
		"# TYPE asets_tardiness histogram",
		"# HELP asets_completions_total completed transactions",
	} {
		if !strings.Contains(text, header) {
			t.Fatalf("missing %q in:\n%s", header, text)
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n, "").Inc()
		}
		var b strings.Builder
		if err := WritePrometheus(&b, r); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := build([]string{"z_total", "a_total", "m_total"})
	b := build([]string{"m_total", "z_total", "a_total"})
	if a != b {
		t.Fatalf("output depends on registration order:\n%s\nvs\n%s", a, b)
	}
}

func TestWritePrometheusEmptyRegistry(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, NewRegistry()); err != nil {
		t.Fatal(err)
	}
	if b.String() != "" {
		t.Fatalf("empty registry produced %q", b.String())
	}
}
