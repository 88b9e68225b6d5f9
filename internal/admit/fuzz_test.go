package admit

import (
	"math"
	"testing"
)

// FuzzAdmitParse: every spec Parse accepts builds a controller whose
// parameters are finite and inside their documented ranges, and whose name
// parses back to the same controller.
func FuzzAdmitParse(f *testing.F) {
	for _, s := range []string{
		"", "none", "queue:8", "slack", "slack:2.5", "missratio", "missratio:0.4,0.1",
		"slack:NaN", "missratio:NaN,0", "missratio:1,0.999", "queue:-1", "slack:1e308",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			return
		}
		finiteIn := func(what string, v, lo, hi float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < lo || v > hi {
				t.Fatalf("Parse(%q) accepted %s %v outside [%v, %v]", spec, what, v, lo, hi)
			}
		}
		switch c := c.(type) {
		case Unconditional:
		case QueueCap:
			if c.Max < 1 {
				t.Fatalf("Parse(%q) accepted queue capacity %d", spec, c.Max)
			}
		case Feasibility:
			finiteIn("slack tolerance", c.Tolerance, 0, math.MaxFloat64)
		case *MissRatio:
			finiteIn("enter threshold", c.Enter, 0, 1)
			finiteIn("exit threshold", c.Exit, 0, 1)
			if c.Enter <= 0 || c.Exit >= c.Enter {
				t.Fatalf("Parse(%q) accepted enter=%v exit=%v", spec, c.Enter, c.Exit)
			}
		default:
			t.Fatalf("Parse(%q) built unexpected %T", spec, c)
		}
		again, err := Parse(c.Name())
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its name %q does not re-validate: %v", spec, c.Name(), err)
		}
		if again.Name() != c.Name() {
			t.Fatalf("name %q re-parses as %q", c.Name(), again.Name())
		}
	})
}
