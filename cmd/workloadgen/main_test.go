package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/cliflag"
	"repro/internal/workload"
)

func TestPrintStats(t *testing.T) {
	cfg := workload.Default(0.8, 1).WithWorkflows(4, 1).WithWeights()
	cfg.N = 200
	set := workload.MustGenerate(cfg)
	var b strings.Builder
	printStats(&b, set)
	out := b.String()
	for _, want := range []string{
		"transactions:        200",
		"total work:",
		"mean length:",
		"dependency edges:",
		"workflows:",
		"offered load:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

// TestWorkloadFlagsShared: the command's Table I workload flags are
// cliflag.AddWorkload's, bound to wl, and a fixed argument list builds the
// configuration that asetssim and workloadgen both pin.
func TestWorkloadFlagsShared(t *testing.T) {
	ref := flag.NewFlagSet("ref", flag.ContinueOnError)
	cliflag.AddWorkload(ref)
	ref.VisitAll(func(f *flag.Flag) {
		if got := flag.CommandLine.Lookup(f.Name); got == nil || got.DefValue != f.DefValue || got.Usage != f.Usage {
			t.Errorf("-%s: got %+v, want %+v", f.Name, got, f)
		}
	})
	saved := *wl
	t.Cleanup(func() { *wl = saved })
	args := map[string]string{
		"util": "0.9", "n": "40", "kmax": "2", "alpha": "0.7", "seed": "5",
		"wf-len": "4", "wf-membership": "2", "weights": "true", "batch": "true", "random-order": "true",
	}
	for name, v := range args {
		if err := flag.CommandLine.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	want := workload.Default(0.9, 5).WithN(40).WithWorkflows(4, 2).WithWeights()
	want.KMax, want.Alpha = 2, 0.7
	want.Arrivals, want.Order = workload.ArrivalsBatch, workload.OrderRandom
	if cfg := wl.Config(); cfg != want {
		t.Errorf("config %+v, want %+v", cfg, want)
	}
}
