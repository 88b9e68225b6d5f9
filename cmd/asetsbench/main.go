// Command asetsbench regenerates the tables and figures of "Adaptive
// Scheduling of Web Transactions" (ICDE 2009) at full paper scale: 1000
// transactions per workload, five seeded runs per data point, full
// utilization sweeps.
//
// Usage:
//
//	asetsbench                         # run every experiment
//	asetsbench -figure fig10           # run one (fig8..fig17, tab1, alpha, abl-rule, abl-count)
//	asetsbench -figure fig14 -chart    # add an ASCII chart of the series
//	asetsbench -csv out/               # also write one CSV per figure
//	asetsbench -n 500 -seeds 3         # scale down for a quick look
//	asetsbench -list                   # list experiment IDs
//
// The gated benchmark modes each write a JSON document and exit non-zero
// when their gate fails; `go test ./cmd/asetsbench` runs every mode at the
// size below and checks the committed documents byte for byte:
//
//	asetsbench -fault-bench BENCH_fault.json -n 300 -seeds 2             # overload shedding sweep
//	asetsbench -parallel-bench BENCH_parallel.json -n 300 -seeds 2       # pool speedup + bit-exactness
//	asetsbench -cluster-bench BENCH_cluster.json -n 300 -seeds 3         # failover vs no-failover strawman
//	asetsbench -contention-bench BENCH_contention.json -n 400 -seeds 3   # conflict-aware vs blind dispatch
//	asetsbench -slo-bench BENCH_slo.json -n 300 -seeds 2                 # alert lead time on the overload sweep
//
// Wall-clock and allocation costs are measured per layer by the perfbench
// module (perfbench/README.md), not here.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliflag"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/slo"
	"repro/internal/svgplot"
)

// benchArgs are the shared flags the bench modes read.
type benchArgs struct {
	n, seeds, parallel int
	seed               uint64
	slo                *slo.Config
}

// benchMode is one gated benchmark: -<flag> PATH runs it and writes the
// document it returns to PATH. A non-nil error is a failed run or gate.
type benchMode struct {
	flag, usage string
	run         func(benchArgs) (any, error)
}

// benchModes lists the modes in dispatch order; the seed caps keep each
// sweep CI-sized.
var benchModes = []benchMode{
	{"parallel-bench", "benchmark the parallel runner against the serial path", func(a benchArgs) (any, error) {
		return runParallelBench(a.n, min(a.seeds, 2), a.parallel, a.seed)
	}},
	{"cluster-bench", "benchmark cluster failover vs a no-failover strawman under an instance crash", func(a benchArgs) (any, error) {
		return runClusterBench(a.n, min(a.seeds, 3))
	}},
	{"slo-bench", "benchmark SLO alert lead time on the Table-I overload sweep", func(a benchArgs) (any, error) {
		return runSLOBench(a.n, min(a.seeds, 3), a.slo)
	}},
	{"contention-bench", "benchmark conflict-aware dispatch vs blind ASETS* on Zipf-contended workloads", func(a benchArgs) (any, error) {
		return runContentionBench(a.n, min(a.seeds, 3))
	}},
	{"fault-bench", "sweep overload shedding vs open admission under a fault plan", func(a benchArgs) (any, error) {
		return runFaultBench(a.n, min(a.seeds, 3))
	}},
}

// errUsage marks a bench invocation rejected before any work.
var errUsage = errors.New("usage")

// runBench is the one dispatch path of every mode: it checks the sizes,
// opens path, runs the mode, writes its document as indented JSON, closes
// the file and reports the first failure — the write's, else the gate's.
func runBench(m benchMode, path string, a benchArgs) error {
	if a.n < 1 || a.seeds < 1 {
		return fmt.Errorf("%w: -%s needs -n >= 1 and -seeds >= 1 (got -n %d -seeds %d)", errUsage, m.flag, a.n, a.seeds)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc, gate := m.run(a)
	if doc != nil {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(doc)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = gate
	}
	return err
}

// runSerialAndParallel is every mode's determinism gate: it builds the
// mode's jobs twice, runs one build on four workers and the other on one,
// and reports whether the two runs' decision-event streams (JSONL, in
// collector order) hash the same. It returns the serial run's jobs,
// summaries and collectors, which the mode's document is folded from.
func runSerialAndParallel(build func() ([]runner.Job, []*obs.Collector)) (jobs []runner.Job, sums []*metrics.Summary, cols []*obs.Collector, same bool, err error) {
	var digests [2][]byte
	for i, workers := range []int{4, 1} {
		jobs, cols = build()
		if sums, err = (runner.Pool{Workers: workers}).Run(context.Background(), jobs); err != nil {
			return nil, nil, nil, false, err
		}
		h := sha256.New()
		enc := json.NewEncoder(h)
		for _, col := range cols {
			for _, ev := range col.Events() {
				if err := enc.Encode(ev); err != nil {
					return nil, nil, nil, false, err
				}
			}
		}
		digests[i] = h.Sum(nil)
	}
	return jobs, sums, cols, bytes.Equal(digests[0], digests[1]), nil
}

// figureOptions checks the figure path's sizes, as runBench does the bench
// modes', and builds its options: the first -seeds of
// experiments.DefaultSeeds, continued by the golden-ratio step past them.
func figureOptions(n, seeds, parallel int, validate bool) (experiments.Options, error) {
	if n < 1 || seeds < 1 {
		return experiments.Options{}, fmt.Errorf("%w: the figures need -n >= 1 and -seeds >= 1 (got -n %d -seeds %d)", errUsage, n, seeds)
	}
	opts := experiments.Options{N: n, Parallelism: parallel, Validate: validate}
	for i := range seeds {
		seed := experiments.DefaultSeeds[0] + uint64(i)*0x9e3779b97f4a7c15
		if i < len(experiments.DefaultSeeds) {
			seed = experiments.DefaultSeeds[i]
		}
		opts.Seeds = append(opts.Seeds, seed)
	}
	return opts, nil
}

func main() {
	var (
		figure   = flag.String("figure", "all", "experiment id to run, or 'all'")
		n        = flag.Int("n", 1000, "transactions per workload (paper: 1000)")
		seeds    = flag.Int("seeds", 5, "seeded runs per data point (paper: 5)")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		validate = flag.Bool("validate", false, "validate every schedule against the trace checker")
		chart    = flag.Bool("chart", false, "render an ASCII chart under each table")
		csvDir   = flag.String("csv", "", "directory to write per-figure CSV files into")
		svgDir   = flag.String("svg", "", "directory to write per-figure SVG charts into")
		jsonDir  = flag.String("json", "", "directory to write per-figure JSON results into")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	paths := make([]*string, len(benchModes))
	for i, m := range benchModes {
		paths[i] = flag.String(m.flag, "", m.usage+", write JSON to this path, and exit")
	}
	seed := cliflag.AddSeed(flag.CommandLine)
	sloFlags := cliflag.AddSLO(flag.CommandLine)
	flag.Parse()
	if err := sloFlags.Load(); err != nil {
		cliflag.Fatal("asetsbench", err)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	for i, m := range benchModes {
		if *paths[i] == "" {
			continue
		}
		args := benchArgs{n: *n, seeds: *seeds, parallel: *parallel, seed: *seed, slo: sloFlags.Config()}
		if err := runBench(m, *paths[i], args); err != nil {
			if errors.Is(err, errUsage) {
				cliflag.Fatal("asetsbench", err)
			}
			fmt.Fprintf(os.Stderr, "asetsbench: %s: %v\n", m.flag, err)
			os.Exit(1)
		}
		return
	}

	opts, err := figureOptions(*n, *seeds, *parallel, *validate)
	if err != nil {
		cliflag.Fatal("asetsbench", err)
	}

	ids := experiments.IDs()
	if *figure != "all" {
		if _, ok := experiments.Registry[*figure]; !ok {
			fmt.Fprintf(os.Stderr, "asetsbench: unknown experiment %q (use -list)\n", *figure)
			os.Exit(2)
		}
		ids = []string{*figure}
	}

	for _, dir := range []string{*csvDir, *svgDir, *jsonDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "asetsbench: %v\n", err)
			os.Exit(1)
		}
	}

	failed := false
	for _, id := range ids {
		res, err := experiments.Registry[id](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asetsbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(res.Figure.Table())
		fmt.Printf("paper:    %s\n", res.PaperClaim)
		for _, obs := range res.Observations {
			fmt.Printf("measured: %s\n", obs)
		}
		if *chart {
			fmt.Println()
			fmt.Println(res.Figure.Chart(64, 14))
		}
		fmt.Println(strings.Repeat("=", 72))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(res.Figure.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "asetsbench: writing %s: %v\n", path, err)
				failed = true
			}
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, id+".json")
			doc, err := json.MarshalIndent(struct {
				ID           string               `json:"id"`
				Title        string               `json:"title"`
				XLabel       string               `json:"x_label"`
				YLabel       string               `json:"y_label"`
				X            []float64            `json:"x"`
				Series       map[string][]float64 `json:"series"`
				PaperClaim   string               `json:"paper_claim"`
				Observations []string             `json:"observations"`
			}{
				ID:           res.Figure.ID,
				Title:        res.Figure.Title,
				XLabel:       res.Figure.XLabel,
				YLabel:       res.Figure.YLabel,
				X:            res.Figure.X,
				Series:       seriesMap(res.Figure),
				PaperClaim:   res.PaperClaim,
				Observations: res.Observations,
			}, "", "  ")
			if err == nil {
				err = os.WriteFile(path, doc, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "asetsbench: writing %s: %v\n", path, err)
				failed = true
			}
		}
		if *svgDir != "" {
			path := filepath.Join(*svgDir, id+".svg")
			var buf strings.Builder
			if err := svgplot.Render(&buf, res.Figure); err != nil {
				fmt.Fprintf(os.Stderr, "asetsbench: rendering %s: %v\n", path, err)
				failed = true
			} else if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "asetsbench: writing %s: %v\n", path, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// seriesMap flattens a figure's series for JSON output.
func seriesMap(fig *report.Figure) map[string][]float64 {
	out := make(map[string][]float64, len(fig.Series))
	for _, s := range fig.Series {
		out[s.Name] = s.Y
	}
	return out
}
