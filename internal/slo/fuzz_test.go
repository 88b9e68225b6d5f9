package slo

import (
	"math"
	"testing"
)

// FuzzSLOParseSpec: every spec ParseSpec accepts re-validates as a Config,
// and every target is finite — zero (rule off) or positive, miss ratios
// below one.
func FuzzSLOParseSpec(f *testing.F) {
	for _, s := range []string{
		"default", "miss=0.1", "heavy:miss=0.01", "miss=0.1;heavy:miss=0.01,p95=5",
		"*:p99=200,queue=50", "miss=NaN,p99=5", "p95=Inf", "light:queue=1e308", ";",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if err := (Config{Spec: spec}).Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec Config.Validate rejects: %v", s, err)
		}
		for i, tg := range spec.Classes {
			for _, v := range []float64{tg.MissRatio, tg.TardinessP95, tg.ResponseP99, tg.QueueBound} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("ParseSpec(%q) class %d: target %v is not finite and non-negative", s, i, v)
				}
			}
			if tg.MissRatio >= 1 {
				t.Fatalf("ParseSpec(%q) class %d: miss ratio %v not below 1", s, i, tg.MissRatio)
			}
		}
	})
}
