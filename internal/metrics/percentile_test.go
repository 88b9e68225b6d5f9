package metrics

import (
	"math"
	"sort"
	"testing"

	"repro/internal/txn"
)

// sortedPercentile is the sort-based reference for Compute's percentiles:
// the p-quantile of sorted values by linear interpolation between closest
// ranks.
func sortedPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// referencePercentiles sorts the tardiness of every admitted transaction of
// s and reads P50, P95 and P99 from it.
func referencePercentiles(s *txn.Set) [3]float64 {
	var tard []float64
	for _, t := range s.Txns {
		if !t.Shed {
			tard = append(tard, t.Tardiness())
		}
	}
	sort.Float64s(tard)
	return [3]float64{sortedPercentile(tard, 0.50), sortedPercentile(tard, 0.95), sortedPercentile(tard, 0.99)}
}

// overrunSet builds one finished transaction per overrun (finish time minus
// deadline; a non-positive overrun meets the deadline), shedding those
// whose index is in shed.
func overrunSet(t testing.TB, overruns []float64, shed map[int]bool) *txn.Set {
	t.Helper()
	txns := make([]*txn.Transaction, len(overruns))
	for i, o := range overruns {
		txns[i] = &txn.Transaction{ID: txn.ID(i), Deadline: 10, Length: 1, Weight: 1}
		if shed[i] {
			txns[i].Shed = true
		} else {
			txns[i].Finished, txns[i].FinishTime = true, 10+o
		}
	}
	s, err := txn.NewSet(txns)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkPercentiles fails unless Compute's percentiles over s equal the
// sort-based reference bit for bit (any NaN matches any NaN).
func checkPercentiles(t *testing.T, s *txn.Set) {
	t.Helper()
	sum, err := Compute(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := referencePercentiles(s)
	for i, got := range [3]float64{sum.TardinessP50, sum.TardinessP95, sum.TardinessP99} {
		if math.Float64bits(got) != math.Float64bits(want[i]) && !(math.IsNaN(got) && math.IsNaN(want[i])) {
			t.Fatalf("percentile %d = %v (%#x), sorted reference %v (%#x)", i, got, math.Float64bits(got), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestComputePercentiles compares Compute's selected percentiles with the
// sorted reference on the shapes where rank arithmetic goes wrong: tiny
// sets, no misses, no met deadlines, ties, and shed transactions.
func TestComputePercentiles(t *testing.T) {
	ramp := make([]float64, 257)
	for i := range ramp {
		ramp[i] = float64((i*37)%257) - 100
	}
	for _, tc := range []struct {
		name     string
		overruns []float64
		shed     map[int]bool
	}{
		{"n=0", nil, nil},
		{"n=1 met", []float64{-1}, nil},
		{"n=1 missed", []float64{3}, nil},
		{"n=2", []float64{5, -1}, nil},
		{"n=3", []float64{2, 7, -4}, nil},
		{"n=3 missed", []float64{9, 2, 7}, nil},
		{"all zero", []float64{-1, 0, -3, -2, 0}, nil},
		{"zero-free", []float64{4, 1, 3, 1, 2, 6, 5}, nil},
		{"ties", []float64{2, 2, 2, -1, 2, 2, 7, 7, 2, -1}, nil},
		{"ramp", ramp, nil},
		{"shed", []float64{5, -1, 8, 3, 9}, map[int]bool{0: true, 2: true}},
		{"all shed", []float64{5, 6}, map[int]bool{0: true, 1: true}},
		{"one admitted", []float64{5, 6, -2}, map[int]bool{0: true, 2: true}},
		{"infinite", []float64{math.Inf(1), 3, -2, math.Inf(1)}, nil},
		{"NaN", []float64{math.NaN(), 3, -2, 4}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { checkPercentiles(t, overrunSet(t, tc.overruns, tc.shed)) })
	}
}

// FuzzComputePercentiles: for any set of overruns, some shed, Compute's
// percentiles equal the sorted reference bit for bit. Each byte is one
// transaction: the top bit sheds it and the low six bits pick an overrun
// from a small palette, so ties and met deadlines are common; scale
// stretches the palette.
func FuzzComputePercentiles(f *testing.F) {
	f.Add([]byte{}, 1.0)
	f.Add([]byte{0}, 1.0)
	f.Add([]byte{30, 0}, 1.0)
	f.Add([]byte{30, 31, 2}, 0.5)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0)
	f.Add([]byte{40, 40, 40, 40, 41, 63, 63, 0, 128, 200, 21, 22}, 1.0)
	f.Add([]byte("a reasonably long run of bytes with repeats, repeats, repeats"), 1e-3)
	f.Add([]byte{50, 60, 10}, math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, scale float64) {
		overruns := make([]float64, len(data))
		shed := map[int]bool{}
		for i, b := range data {
			overruns[i] = (float64(b&63) - 20) * scale
			shed[i] = b&128 != 0
		}
		checkPercentiles(t, overrunSet(t, overruns, shed))
	})
}
