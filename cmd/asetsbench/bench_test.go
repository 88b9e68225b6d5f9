package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"repro/internal/experiments"
)

// sloAllocs matches the slo-bench allocation measurement. MemStats deltas
// count every goroutine's allocations, so the figure varies by a few
// hundredths between runs even outside the test binary; the comparison
// masks it, and runSLOBench's gate already holds it to the budget.
var sloAllocs = regexp.MustCompile(`"slo_allocs_per_txn": [^,]*,`)

// mode returns the bench mode registered under flag.
func mode(t *testing.T, flag string) benchMode {
	t.Helper()
	for _, m := range benchModes {
		if m.flag == flag {
			return m
		}
	}
	t.Fatalf("no bench mode -%s", flag)
	return benchMode{}
}

// TestBenchModes runs every gated mode through the dispatch path at its
// committed size: the gate must hold, and each deterministic document must
// equal the committed one byte for byte. The parallel document records
// wall-clock times, so only its bit-exactness gate is checked: it runs on
// three workers, below the four at which runParallelBench enforces its
// speedup gate, because a wall-clock speedup measured next to other
// packages' tests is noise. CI runs the speedup gate in a step of its own.
func TestBenchModes(t *testing.T) {
	for _, tc := range []struct {
		flag               string
		n, seeds, parallel int
		doc                string // committed document, "" if it records timings
	}{
		{"fault-bench", 300, 2, 0, "BENCH_fault.json"},
		{"parallel-bench", 300, 2, 3, ""},
		{"cluster-bench", 300, 3, 0, "BENCH_cluster.json"},
		{"contention-bench", 400, 3, 0, "BENCH_contention.json"},
		{"slo-bench", 300, 2, 0, "BENCH_slo.json"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			a := benchArgs{n: tc.n, seeds: tc.seeds, parallel: tc.parallel, seed: 1}
			if err := runBench(mode(t, tc.flag), path, a); err != nil {
				t.Fatalf("gate failed: %v", err)
			}
			if tc.doc == "" {
				return
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			mask := []byte(`"slo_allocs_per_txn": (masked),`)
			got, want = sloAllocs.ReplaceAll(got, mask), sloAllocs.ReplaceAll(want, mask)
			if !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				i := 0
				for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
					i++
				}
				line := func(ls [][]byte) []byte {
					if i < len(ls) {
						return bytes.TrimSpace(ls[i])
					}
					return []byte("(end of document)")
				}
				t.Errorf("output differs from the committed %s at line %d: got `%s`, want `%s`\n"+
					"If the change is intended, regenerate it from the repository root with\n\tgo run ./cmd/asetsbench -%s %s -n %d -seeds %d",
					tc.doc, i+1, line(gl), line(wl), tc.flag, tc.doc, tc.n, tc.seeds)
			}
		})
	}
}

// TestFaultBenchBelowTenTransactions: the queue-cap controller caps the
// queue at n/10 transactions, but at least one, so the fault bench runs
// below ten transactions instead of building an invalid "queue:0" spec.
func TestFaultBenchBelowTenTransactions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := runBench(mode(t, "fault-bench"), path, benchArgs{n: 5, seeds: 2, seed: 1}); err != nil {
		t.Fatalf("-fault-bench -n 5 -seeds 2: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte(`"controller": "queue:1"`)) {
		t.Fatalf("-n 5 document has no queue:1 rows:\n%s", got)
	}
}

// TestBenchRejectsEmptySizes: -n or -seeds below one would average over no
// runs (NaN documents) or pass a gate vacuously, so the dispatch rejects
// them as a usage error before creating the output file.
func TestBenchRejectsEmptySizes(t *testing.T) {
	for _, m := range benchModes {
		for _, a := range []benchArgs{{n: 0, seeds: 2}, {n: 300, seeds: 0}} {
			path := filepath.Join(t.TempDir(), "bench.json")
			if err := runBench(m, path, a); !errors.Is(err, errUsage) {
				t.Errorf("-%s -n %d -seeds %d: err = %v, want a usage error", m.flag, a.n, a.seeds, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("-%s -n %d -seeds %d: output file created before the usage check", m.flag, a.n, a.seeds)
			}
		}
	}
}

// TestFigureRejectsEmptySizes: the figure path rejects the sizes the bench
// modes reject, instead of panicking on a negative -seeds or letting the
// experiments' defaults replace a zero.
func TestFigureRejectsEmptySizes(t *testing.T) {
	for _, a := range []benchArgs{{n: 0, seeds: 2}, {n: 300, seeds: 0}, {n: -1, seeds: 2}, {n: 300, seeds: -1}} {
		if _, err := figureOptions(a.n, a.seeds, 0, false); !errors.Is(err, errUsage) {
			t.Errorf("-n %d -seeds %d: err = %v, want a usage error", a.n, a.seeds, err)
		}
	}
	opts, err := figureOptions(300, 7, 0, false)
	step := uint64(0x9e3779b97f4a7c15)
	if err != nil || opts.N != 300 || len(opts.Seeds) != 7 || !slices.Equal(opts.Seeds[:5], experiments.DefaultSeeds) ||
		opts.Seeds[6] != experiments.DefaultSeeds[0]+6*step {
		t.Fatalf("-n 300 -seeds 7: opts %+v, err %v", opts, err)
	}
}
