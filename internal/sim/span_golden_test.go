package sim

import (
	"bytes"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// goldenSpanDigest pins the byte-exact span JSONL of the fig-14-style golden
// workload (same seed and shape as TestGoldenSchedules) under ASETS* with
// the full fault taxonomy active. Like goldenDigests, this is a regression
// tripwire: a deliberate change to the span encoding, segment folding or
// event ordering must update the constant with an explanation.
const goldenSpanDigest uint64 = 0xa870bcf9a4d41172

func spanJSONL(t *testing.T) []byte {
	t.Helper()
	cfg := workload.Default(0.85, 0xA5E75).WithWorkflows(4, 1).WithWeights()
	cfg.N = 200
	set := workload.MustGenerate(cfg)
	sb := obs.NewSpanBuilder(set, obs.SpanOptions{})
	if _, err := New(Config{Sink: sb, Faults: hammerPlan()}).Run(set, core.New()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteSpans(&buf, sb.Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSpanJSONL is the tentpole's byte-stability acceptance test: the
// serialized span stream of the seeded golden run hashes to a pinned value,
// and every completed span satisfies the bit-exact attribution invariant.
func TestGoldenSpanJSONL(t *testing.T) {
	out := spanJSONL(t)
	if len(out) == 0 {
		t.Fatal("no spans serialized")
	}
	h := fnv.New64a()
	h.Write(out)
	if got := h.Sum64(); got != goldenSpanDigest {
		t.Errorf("span JSONL digest %#x, golden %#x — span encoding or folding changed", got, goldenSpanDigest)
	}
	if again := spanJSONL(t); !bytes.Equal(out, again) {
		t.Fatal("span JSONL not byte-stable across runs")
	}
}
