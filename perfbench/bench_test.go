package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tinyScale shrinks every workload so a smoke run takes well under a second.
const tinyScale = 0.02

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10_000, 99.9, true},
		{100_000, 99.99, true}, {10_000_000, 99.999, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	// The percentile it picks leaves at least ten samples beyond it.
	for _, n := range []int{20, 137, 1000, 10_000, 12_345} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		p, _ := highestPercentile(n)
		if beyond := n - 1 - int(quantile(xs, p)); beyond < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", n, p, beyond)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"txn_per_s", "obs.ring.ns_per_event", "table1-txn", "0x", "a"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "ns%", "é", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, w := range workloadNames {
		if !validName(w) {
			t.Errorf("workload name %q is not valid", w)
		}
	}
}

// declared reads the metrics BENCHMARK.json declares, name to unit, and
// checks that it lists the benchmark's workloads.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a tiny size, untraced and traced: the
// outputs check out and the metrics printed are exactly the declared ones,
// with the declared units.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 0.05, trace: traced, scale: tinyScale}
			want := endToEnd
			if traced {
				o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
				want = perLayer
			}
			rep, err := run(o, bufio.NewWriter(io.Discard))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minReps {
				t.Errorf("%s trace=%v: correct=%v, %d of %d runs failed", w, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, declared %v", w, traced, got, want)
			}
		}
	}
}

// TestTracedMatchesUntraced: the timing wrappers change nothing the
// engines compute. For every workload, input and traced configuration, the
// traced run's outcome digest and event-stream digest equal the untraced
// run's bit for bit.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloadNames {
		b, err := newBench(w, 5, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.generate(nil); err != nil {
			t.Fatal(err)
		}
		for in := 0; in < b.inputs(); in++ {
			for m := 0; m < b.modes(); m++ {
				plain, err := once(b.prepare(nil, in, m, true))
				if err != nil {
					t.Fatalf("%s input %d mode %d: %v", w, in, m, err)
				}
				tr := newTracer(0)
				traced, err := once(b.prepare(tr, in, m, true))
				if err != nil {
					t.Fatalf("%s input %d mode %d traced: %v", w, in, m, err)
				}
				if traced.digest != plain.digest || traced.events != plain.events {
					t.Errorf("%s input %d mode %d: traced digests %016x/%016x, untraced %016x/%016x",
						w, in, m, traced.digest, traced.events, plain.digest, plain.events)
				}
				wantEvents := !(w == "live-replay" && m == liveBare)
				if (plain.events != 0) != wantEvents {
					t.Errorf("%s input %d mode %d: event digest %016x", w, in, m, plain.events)
				}
				if tr.layer(lCore).count == 0 {
					t.Errorf("%s input %d mode %d: no scheduler call was traced", w, in, m)
				}
			}
		}
	}
}
