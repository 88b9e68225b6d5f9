package metrics

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestPairedBasics(t *testing.T) {
	var p Paired
	p.Add(10, 8)
	p.Add(12, 9)
	p.Add(8, 7)
	if p.diffs.N() != 3 {
		t.Fatalf("N = %d", p.diffs.N())
	}
	if p.a.Mean() != 10 || p.b.Mean() != 8 {
		t.Fatalf("means %v %v", p.a.Mean(), p.b.Mean())
	}
	if p.MeanDiff() != 2 {
		t.Fatalf("diff %v", p.MeanDiff())
	}
}

func TestPairedRemovesWorkloadVariance(t *testing.T) {
	// A and B differ by a tiny constant on wildly varying workloads: an
	// unpaired comparison drowns, the paired one detects it.
	src := rng.New(7)
	var p Paired
	for i := 0; i < 50; i++ {
		base := src.Uniform(0, 1000)
		p.Add(base+1, base) // A consistently 1 worse
	}
	if !p.Significant05() {
		t.Fatalf("constant +1 difference not significant: t = %v", p.TStatistic())
	}
	if math.Abs(p.MeanDiff()-1) > 1e-9 {
		t.Fatalf("mean diff %v", p.MeanDiff())
	}
}

func TestPairedNoDifference(t *testing.T) {
	var p Paired
	for i := 0; i < 10; i++ {
		p.Add(float64(i), float64(i))
	}
	if p.Significant05() {
		t.Fatal("identical series flagged significant")
	}
	if p.TStatistic() != 0 {
		t.Fatalf("t = %v", p.TStatistic())
	}
}

func TestPairedDegenerate(t *testing.T) {
	var p Paired
	if p.TStatistic() != 0 || p.Significant05() {
		t.Fatal("empty paired misbehaves")
	}
	p.Add(1, 2)
	if p.TStatistic() != 0 {
		t.Fatal("single pair should have t=0")
	}
	// Zero variance, non-zero mean: infinite t.
	var q Paired
	q.Add(3, 1)
	q.Add(3, 1)
	if !math.IsInf(q.TStatistic(), 1) || !q.Significant05() {
		t.Fatalf("constant diff t = %v", q.TStatistic())
	}
}
