package rng

import (
	"math"
	"sort"
	"testing"
)

// zipfGoldenDraws is how many Sample outputs each golden case pins.
const zipfGoldenDraws = 400

// zipfDigest folds the first zipfGoldenDraws samples of z under New(seed)
// into an FNV-1a hash, returning it with the first eight values.
func zipfDigest(z *Zipf, seed uint64) (uint64, [8]int) {
	src := New(seed)
	h := uint64(14695981039346656037)
	var head [8]int
	for i := 0; i < zipfGoldenDraws; i++ {
		v := z.Sample(src)
		if i < len(head) {
			head[i] = v
		}
		for b := uint64(v); ; b >>= 8 {
			h ^= b & 0xff
			h *= 1099511628211
			if b < 0x100 {
				break
			}
		}
		h ^= 0xff // value separator
		h *= 1099511628211
	}
	return h, head
}

// TestZipfSampleGolden pins Sample's output sequence: workload lengths and
// contention key sets are drawn through it, so every recorded experiment
// and golden schedule depends on these exact values. A change here is a
// reproducibility break, not an optimisation.
func TestZipfSampleGolden(t *testing.T) {
	cases := []struct {
		name          string
		min, max      int
		alpha         float64
		seed          uint64
		wantHash      uint64
		wantFirstVals [8]int
	}{
		{"keyspace-4096", 0, 4095, 0.9, 1, 0xAD1FD339DA08DD60, [8]int{596, 147, 226, 47, 572, 3, 0, 43}},
		{"table1-lengths", 1, 50, 0.5, 2, 0x405A1B32E5CAB4DC, [8]int{2, 29, 4, 30, 26, 5, 24, 5}},
		{"lengths-alpha-1.1", 1, 50, 1.1, 3, 0x27EDC6B37E4BEF49, [8]int{10, 8, 1, 5, 3, 3, 1, 11}},
		{"singleton", 7, 7, 0.5, 4, 0x09B1B23BD98351C5, [8]int{7, 7, 7, 7, 7, 7, 7, 7}},
		{"uniform", 0, 9, 0, 5, 0x04F8B5E692731210, [8]int{2, 6, 6, 8, 5, 7, 5, 8}},
		{"keyspace-65536", 0, 65535, 0.99, 6, 0x6E389E76EAD7F8BD, [8]int{4870, 33712, 17099, 2, 5, 0, 0, 7935}},
	}
	for _, c := range cases {
		h, head := zipfDigest(MustZipf(c.min, c.max, c.alpha), c.seed)
		if h != c.wantHash || head != c.wantFirstVals {
			t.Errorf("%s: hash 0x%016X head %v, want 0x%016X head %v",
				c.name, h, head, c.wantHash, c.wantFirstVals)
		}
	}
}

// refSample is the plain inverse-transform lookup Sample must agree with:
// the first index whose cumulative probability reaches u.
func refSample(z *Zipf, u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return z.min + i
}

// TestZipfGuideMatchesFullSearch: the guide-table lookup returns the same
// value as a binary search of the whole table, over millions of uniform
// draws and over the boundary variates where an off-by-one would show — u
// exactly equal to a table entry, its neighbours either side, zero, and the
// largest float64 below 1.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	draws := 4_000_000
	if testing.Short() {
		draws = 400_000
	}
	zipfs := []*Zipf{
		MustZipf(0, 4095, 0.9),
		MustZipf(1, 50, 0.5),
		MustZipf(1, 50, 1.1),
		MustZipf(7, 7, 0.5),
		MustZipf(0, 9, 0),
		MustZipf(0, 65535, 0.99),
		MustZipf(-3, 997, 3.5), // steep tail: thousands of entries share the last bucket
		MustZipf(1, 3, 0.3),
	}
	below1 := math.Nextafter(1, 0)
	for _, z := range zipfs {
		check := func(u float64) {
			if got, want := z.quantile(u), refSample(z, u); got != want {
				t.Fatalf("zipf[%d,%d] alpha %v: u=%v gives %d, full search gives %d",
					z.min, z.max, z.alpha, u, got, want)
			}
		}
		check(0)
		check(below1)
		for _, c := range z.cdf {
			for _, u := range []float64{c, math.Nextafter(c, 0), math.Nextafter(c, 2)} {
				if u >= 0 && u < 1 {
					check(u)
				}
			}
		}
		src := New(uint64(z.max))
		for i := 0; i < draws/len(zipfs); i++ {
			check(src.Float64())
		}
	}
}
