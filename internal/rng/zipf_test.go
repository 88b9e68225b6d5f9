package rng

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestZipfSupport(t *testing.T) {
	z := MustZipf(1, 50, 0.5)
	src := New(1)
	counts := map[int]int{}
	for i := 0; i < 100000; i++ {
		v := z.Sample(src)
		if v < 1 || v > 50 {
			t.Fatalf("sample %d outside [1, 50]", v)
		}
		counts[v]++
	}
	// Skewed toward short transactions: 1 must be the most frequent value.
	for v, c := range counts {
		if v != 1 && c > counts[1] {
			t.Fatalf("value %d more frequent (%d) than 1 (%d)", v, c, counts[1])
		}
	}
}

func TestZipfEmpiricalMatchesPMF(t *testing.T) {
	z := MustZipf(1, 10, 0.8)
	src := New(3)
	const n = 400000
	counts := make([]int, 11)
	for i := 0; i < n; i++ {
		counts[z.Sample(src)]++
	}
	for v := 1; v <= 10; v++ {
		want := z.Prob(v)
		got := float64(counts[v]) / n
		if math.Abs(got-want) > 0.004 {
			t.Fatalf("P(X=%d): empirical %v vs pmf %v", v, got, want)
		}
	}
}

func TestZipfMeanMatchesEmpirical(t *testing.T) {
	z := MustZipf(1, 50, 0.5)
	src := New(5)
	const n = 400000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(z.Sample(src))
	}
	emp := sum / n
	if math.Abs(emp-z.Mean()) > 0.02*z.Mean() {
		t.Fatalf("empirical mean %v vs analytic %v", emp, z.Mean())
	}
}

func TestZipfAlphaZeroIsUniform(t *testing.T) {
	z := MustZipf(1, 4, 0)
	for v := 1; v <= 4; v++ {
		if math.Abs(z.Prob(v)-0.25) > 1e-12 {
			t.Fatalf("alpha=0 P(X=%d) = %v, want 0.25", v, z.Prob(v))
		}
	}
	if math.Abs(z.Mean()-2.5) > 1e-12 {
		t.Fatalf("alpha=0 mean = %v, want 2.5", z.Mean())
	}
}

func TestZipfHigherAlphaMoreSkew(t *testing.T) {
	lo := MustZipf(1, 50, 0.2)
	hi := MustZipf(1, 50, 1.5)
	if hi.Prob(1) <= lo.Prob(1) {
		t.Fatalf("P(X=1): alpha=1.5 gives %v, alpha=0.2 gives %v; want more mass on 1 with more skew",
			hi.Prob(1), lo.Prob(1))
	}
	if hi.Mean() >= lo.Mean() {
		t.Fatalf("mean: alpha=1.5 gives %v, alpha=0.2 gives %v; want smaller mean with more skew",
			hi.Mean(), lo.Mean())
	}
}

func TestZipfSingleton(t *testing.T) {
	z := MustZipf(7, 7, 0.5)
	src := New(9)
	for i := 0; i < 100; i++ {
		if v := z.Sample(src); v != 7 {
			t.Fatalf("singleton zipf returned %d", v)
		}
	}
	if z.Mean() != 7 {
		t.Fatalf("singleton mean %v", z.Mean())
	}
}

func TestZipfInvalidParameters(t *testing.T) {
	if _, err := NewZipf(5, 4, 0.5); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := NewZipf(1, 10, -1); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := NewZipf(1, 10, math.NaN()); err == nil {
		t.Fatal("NaN alpha accepted")
	}
	if _, err := NewZipf(1, 10, math.Inf(1)); err == nil {
		t.Fatal("infinite alpha accepted")
	}
}

func TestMustZipfPanics(t *testing.T) {
	defer expectPanic(t, "MustZipf with empty range")
	MustZipf(2, 1, 0.5)
}

func TestZipfProbOutsideSupport(t *testing.T) {
	z := MustZipf(3, 6, 0.5)
	if z.Prob(2) != 0 || z.Prob(7) != 0 {
		t.Fatal("Prob outside support should be 0")
	}
}

func TestZipfPMFSumsToOne(t *testing.T) {
	z := MustZipf(1, 50, 0.5)
	var sum float64
	for v := 1; v <= 50; v++ {
		sum += z.Prob(v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pmf sums to %v", sum)
	}
}

func TestZipfAccessors(t *testing.T) {
	z := MustZipf(2, 9, 0.7)
	if z.Min() != 2 || z.Max() != 9 || z.Alpha() != 0.7 {
		t.Fatalf("accessors: min=%d max=%d alpha=%v", z.Min(), z.Max(), z.Alpha())
	}
}

func TestQuickZipfSampleInSupport(t *testing.T) {
	src := New(101)
	f := func(lo int8, span uint8, alphaQ uint8) bool {
		min := int(lo)
		max := min + int(span%60)
		alpha := float64(alphaQ%40) / 10 // 0.0 .. 3.9
		z, err := NewZipf(min, max, alpha)
		if err != nil {
			return false
		}
		v := z.Sample(src)
		return v >= min && v <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestZipfMemo: equal parameters share one sampler, identical to a fresh
// build; a support past zipfMemoMax is built every time; and goroutines may
// build and share samplers concurrently.
func TestZipfMemo(t *testing.T) {
	a, b := MustZipf(0, 4095, 0.9), MustZipf(0, 4095, 0.9)
	if a != b {
		t.Fatal("equal parameters built two samplers")
	}
	if !reflect.DeepEqual(a, buildZipf(0, 4095, 0.9)) {
		t.Fatal("the shared sampler differs from a fresh build")
	}
	if MustZipf(0, 4095, 0.8) == a || MustZipf(1, 4095, 0.9) == a {
		t.Fatal("different parameters share a sampler")
	}
	if MustZipf(0, zipfMemoMax, 0) == MustZipf(0, zipfMemoMax, 0) {
		t.Fatal("a support past the memo's bound was kept")
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				z := MustZipf(1, 10+(g+i)%12, 0.5)
				if z.Max() != 10+(g+i)%12 {
					t.Errorf("sampler for max %d has max %d", 10+(g+i)%12, z.Max())
				}
			}
		}()
	}
	wg.Wait()
}
