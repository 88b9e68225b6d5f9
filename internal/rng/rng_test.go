package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownSequence(t *testing.T) {
	// Reference values for seed 0 from the splitmix64 reference
	// implementation (Vigna).
	sm := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("splitmix64(seed 0) value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSourceDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seed diverged at draw %d", i)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sources with different seeds matched %d/100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(99)
	for i := 0; i < 100000; i++ {
		v := src.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 returned %v outside [0, 1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	src := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += src.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUint64nUnbiased(t *testing.T) {
	src := New(11)
	const n, buckets = 300000, 7
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[src.Uint64n(buckets)]++
	}
	expected := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expected) > 0.05*expected {
			t.Fatalf("bucket %d count %d deviates >5%% from expected %.0f", b, c, expected)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	src := New(13)
	for i := 0; i < 10000; i++ {
		if v := src.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) returned %d", v)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer expectPanic(t, "Uint64n(0)")
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer expectPanic(t, "Intn(0)")
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	src := New(21)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := src.IntRange(3, 9)
		if v < 3 || v > 9 {
			t.Fatalf("IntRange(3, 9) returned %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 9; v++ {
		if !seen[v] {
			t.Fatalf("IntRange(3, 9) never produced %d in 10000 draws", v)
		}
	}
}

func TestIntRangeSingleton(t *testing.T) {
	src := New(22)
	for i := 0; i < 100; i++ {
		if v := src.IntRange(5, 5); v != 5 {
			t.Fatalf("IntRange(5, 5) returned %d", v)
		}
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer expectPanic(t, "IntRange(2, 1)")
	New(1).IntRange(2, 1)
}

func TestUniformRange(t *testing.T) {
	src := New(31)
	for i := 0; i < 10000; i++ {
		v := src.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Uniform(-2, 3) returned %v", v)
		}
	}
}

func TestUniformPanicsOnInverted(t *testing.T) {
	defer expectPanic(t, "Uniform(1, 0)")
	New(1).Uniform(1, 0)
}

func TestExpMean(t *testing.T) {
	src := New(41)
	const n = 200000
	const rate = 0.25
	var sum float64
	for i := 0; i < n; i++ {
		v := src.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.05*(1/rate) {
		t.Fatalf("Exp(%v) mean = %v, want ~%v", rate, mean, 1/rate)
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer expectPanic(t, "Exp(0)")
	New(1).Exp(0)
}

func TestBoolProbability(t *testing.T) {
	src := New(51)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if src.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	src := New(61)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := src.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	src := New(71)
	vals := []int{1, 2, 2, 3, 5, 8, 13}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	src.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	src := New(81)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return src.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUniformInRange(t *testing.T) {
	src := New(91)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Avoid hi-lo overflowing to +Inf; the simulator's time values are
		// nowhere near this magnitude.
		if math.Abs(a) > 1e300 || math.Abs(b) > 1e300 {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		v := src.Uniform(lo, hi)
		return v >= lo && (v < hi || lo == hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// expectPanic is used as `defer expectPanic(t, "what")`; it is itself the
// deferred function, so its direct recover() call intercepts the panic.
func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s did not panic", what)
	}
}
