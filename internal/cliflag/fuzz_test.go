package cliflag

import (
	"bytes"
	"flag"
	"math"
	"testing"
)

// FuzzLoad drives the Cluster, Contention and SLO flag sets through the CLI
// startup sequence (register, parse, Load) with arbitrary flag values. The
// oracle: a value set Load accepts re-validates through the assembled
// configuration, and every float it carries is finite and in its documented
// range.
func FuzzLoad(f *testing.F) {
	f.Add("2", "weighted", "3", "0.25", "2", "64", "0.9", "4", "2", "0.2", "default", "100", "2", "12")
	f.Add("1", "rr", "0", "1", "0", "0", "NaN", "4", "2", "NaN", "", "NaN", "2", "12")
	f.Add("4", "least", "1", "Inf", "-Inf", "8", "-1", "9", "1", "1.5", "heavy:p95=8", "1e308", "3", "2")
	f.Add("3", "slack", "2", "0.5", "0.25", "16", "1e400", "2", "2", "-0", "light:miss=NaN", "0", "0", "1")
	f.Fuzz(func(t *testing.T, instances, route, budget, backoff, backoffCap,
		keys, alpha, reads, writes, readOnly, sloSpec, window, fast, slow string) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(&bytes.Buffer{})
		c, k, s := AddCluster(fs), AddContention(fs), AddSLO(fs)
		args := []string{
			"-instances=" + instances, "-route=" + route, "-retry-budget=" + budget,
			"-retry-backoff=" + backoff, "-retry-backoff-cap=" + backoffCap,
			"-keys=" + keys, "-key-alpha=" + alpha, "-key-reads=" + reads,
			"-key-writes=" + writes, "-readonly-prob=" + readOnly,
			"-slo=" + sloSpec, "-slo-window=" + window,
			"-slo-burn-fast=" + fast, "-slo-burn-slow=" + slow,
		}
		if fs.Parse(args) != nil {
			return
		}
		finiteIn := func(what string, v, lo, hi float64) {
			t.Helper()
			if math.IsNaN(v) || math.IsInf(v, 0) || v < lo || v > hi {
				t.Fatalf("%q: Load accepted %s %v outside [%v, %v]", args, what, v, lo, hi)
			}
		}
		if c.Load() == nil {
			r := c.Retry()
			if err := r.Validate(); err != nil {
				t.Fatalf("%q: Load accepted a retry budget that does not re-validate: %v", args, err)
			}
			finiteIn("retry backoff", r.BackoffBase, 0, math.MaxFloat64)
			finiteIn("retry backoff cap", r.BackoffCap, 0, math.MaxFloat64)
			if c.Instances < 1 || c.Policy() == nil {
				t.Fatalf("%q: Load accepted %d instances / route %q", args, c.Instances, c.RouteSpec)
			}
		}
		if k.Load() == nil {
			if ks := k.Keyspace(); ks != nil {
				if err := ks.Validate(); err != nil {
					t.Fatalf("%q: Load accepted a keyspace that does not re-validate: %v", args, err)
				}
				finiteIn("key alpha", ks.Alpha, 0, math.MaxFloat64)
				finiteIn("read-only probability", ks.ReadOnlyProb, 0, 1)
			}
		}
		if s.Load() == nil {
			if cfg := s.Config(); cfg != nil {
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%q: Load accepted an SLO config that does not re-validate: %v", args, err)
				}
				finiteIn("SLO window", cfg.Window, math.SmallestNonzeroFloat64, math.MaxFloat64)
				for _, cl := range cfg.Spec.Classes {
					finiteIn("miss ratio", cl.MissRatio, 0, 1)
					finiteIn("p95 tardiness", cl.TardinessP95, 0, math.MaxFloat64)
					finiteIn("p99 response", cl.ResponseP99, 0, math.MaxFloat64)
					finiteIn("queue bound", cl.QueueBound, 0, math.MaxFloat64)
				}
			}
		}
	})
}
