package obs

import (
	"strings"
	"testing"
)

// Observe records one non-negative observation. Programs observe the span
// family's sketches through spanSketches.observe; the tests build plain
// sketch fixtures with it.
func (s *Sketch) Observe(v float64) {
	s.mu.Lock()
	s.s.Add(v)
	s.mu.Unlock()
}

func TestRegistrySketchHandle(t *testing.T) {
	r := NewRegistry()
	s := r.Sketch("asets_test_sketch", "help")
	if r.Sketch("asets_test_sketch", "help") != s {
		t.Fatal("second registration returned a different handle")
	}
	s.Observe(0)
	s.Observe(2)
	s.Observe(4)
	snap := r.Snapshot()
	if len(snap.Sketches) != 1 {
		t.Fatalf("snapshot has %d sketches, want 1", len(snap.Sketches))
	}
	sv := snap.Sketches[0]
	if sv.Name != "asets_test_sketch" || sv.Count != 3 || sv.Sum != 6 || sv.Max != 4 {
		t.Fatalf("snapshot %+v", sv)
	}
	if len(sv.Quantiles) != 3 || sv.Quantiles[0].Q != 0.5 || sv.Quantiles[2].Q != 0.99 {
		t.Fatalf("quantiles %+v", sv.Quantiles)
	}
}

func TestRegistrySketchTypeConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("asets_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("sketch over an existing counter name did not panic")
		}
	}()
	r.Sketch("asets_conflict", "")
}

func TestPrometheusSketchExport(t *testing.T) {
	r := NewRegistry()
	s := r.Sketch("asets_plain", "a plain sketch")
	for _, v := range []float64{0, 1, 2, 3, 4} {
		s.Observe(v)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP asets_plain a plain sketch",
		"# TYPE asets_plain summary",
		`asets_plain{quantile="0.5"} `,
		`asets_plain{quantile="0.95"} `,
		`asets_plain{quantile="0.99"} `,
		"asets_plain_sum 10",
		"asets_plain_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestSpliceLabel(t *testing.T) {
	if got := spliceLabel("", "quantile", "0.5"); got != `{quantile="0.5"}` {
		t.Fatalf("empty labels: %q", got)
	}
	if got := spliceLabel(`{a="b"}`, "quantile", "0.5"); got != `{a="b",quantile="0.5"}` {
		t.Fatalf("non-empty labels: %q", got)
	}
}
