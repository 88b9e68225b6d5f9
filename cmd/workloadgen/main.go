// Command workloadgen emits Table I workloads as JSON for replay, external
// analysis, or debugging. The output loads back through asetssim -load and
// workload.ReadJSON.
//
// Usage:
//
//	workloadgen -util 0.8 -seed 3 > workload.json
//	workloadgen -util 0.9 -wf-len 5 -weights -o page_mix.json
//	workloadgen -util 0.5 -stats        # print distribution stats instead
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/cliflag"
	"repro/internal/txn"
	"repro/internal/workload"
)

// wl holds the Table I workload flags workloadgen shares with asetssim.
var wl = cliflag.AddWorkload(flag.CommandLine)

func main() {
	var (
		out   = flag.String("o", "", "output path (default stdout)")
		stats = flag.Bool("stats", false, "print workload statistics instead of JSON")
		dot   = flag.Bool("dot", false, "emit the dependency graph in Graphviz DOT format instead of JSON")
	)
	flag.Parse()

	cfg := wl.Config()
	set, err := workload.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "workloadgen: %v\n", err)
		os.Exit(1)
	}

	if *stats {
		printStats(os.Stdout, set)
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "workloadgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if *dot {
		if err := txn.WriteDOT(w, set); err != nil {
			fmt.Fprintf(os.Stderr, "workloadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := workload.WriteJSON(w, set, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "workloadgen: %v\n", err)
		os.Exit(1)
	}
}

// printStats summarizes the generated workload's distributions so the
// Table I parameters can be eyeballed without external tooling.
func printStats(w io.Writer, set *txn.Set) {
	n := set.Len()
	lengths := make([]float64, 0, n)
	var work, weightSum float64
	deps := 0
	for _, t := range set.Txns {
		lengths = append(lengths, t.Length)
		work += t.Length
		weightSum += t.Weight
		deps += len(t.Deps)
	}
	sort.Float64s(lengths)
	horizon := set.Txns[n-1].Arrival
	for _, t := range set.Txns {
		if t.Arrival > horizon {
			horizon = t.Arrival
		}
	}
	wfs := txn.BuildWorkflows(set)
	maxLen := 0
	for _, wf := range wfs {
		if len(wf.Members) > maxLen {
			maxLen = len(wf.Members)
		}
	}
	fmt.Fprintf(w, "transactions:        %d\n", n)
	fmt.Fprintf(w, "total work:          %.1f time units\n", work)
	fmt.Fprintf(w, "length min/med/max:  %.0f / %.0f / %.0f\n",
		lengths[0], lengths[n/2], lengths[n-1])
	fmt.Fprintf(w, "mean length:         %.2f\n", work/float64(n))
	fmt.Fprintf(w, "mean weight:         %.2f\n", weightSum/float64(n))
	fmt.Fprintf(w, "dependency edges:    %d\n", deps)
	fmt.Fprintf(w, "workflows:           %d (longest %d members)\n", len(wfs), maxLen)
	fmt.Fprintf(w, "arrival horizon:     %.1f\n", horizon)
	if horizon > 0 {
		fmt.Fprintf(w, "offered load:        %.3f\n", work/horizon)
	}
}
