package fault

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzFaultParse: every plan Parse accepts re-validates, carries only
// finite numbers inside their documented ranges, and survives a JSON round
// trip unchanged.
func FuzzFaultParse(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"seed":7,"abort_prob":0.2,"max_restarts":2,"backoff_base":0.5,"backoff_cap":4}`,
		`{"stalls":[{"start":100,"duration":10},{"start":5,"duration":1,"kind":"crash"}]}`,
		`{"bursts":[{"at":10,"width":5}]}`,
		`{"abort_prob":1e999}`,
		`{"stalls":[{"start":0,"duration":5},{"start":3,"duration":1}]}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		p, err := Parse(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse accepted a plan Validate rejects: %v", err)
		}
		check := func(what string, v, lo float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < lo {
				t.Fatalf("Parse(%q) accepted %s %v (want finite, >= %v)", data, what, v, lo)
			}
		}
		check("abort_prob", p.AbortProb, 0)
		if p.AbortProb > 1 {
			t.Fatalf("Parse(%q) accepted abort_prob %v above 1", data, p.AbortProb)
		}
		check("backoff_base", p.BackoffBase, 0)
		check("backoff_cap", p.BackoffCap, 0)
		for i, w := range p.Stalls {
			check("stall start", w.Start, 0)
			check("stall duration", w.Duration, math.SmallestNonzeroFloat64)
			if i > 0 && w.Start < p.Stalls[i-1].End() {
				t.Fatalf("Parse(%q) accepted overlapping stalls %d and %d", data, i-1, i)
			}
		}
		for _, b := range p.Bursts {
			check("burst at", b.At, 0)
			check("burst width", b.Width, math.SmallestNonzeroFloat64)
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("round trip of %s rejected: %v", enc, err)
		}
		// Compared as JSON: an empty "stalls":[] decodes to an empty slice
		// but encodes as an omitted field.
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("round trip changed the plan: %s -> %s (%v)", enc, enc2, err)
		}
	})
}
