package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/txn"
)

func finished(id int, arrival, deadline, length, weight, finish float64) *txn.Transaction {
	return &txn.Transaction{
		ID:         txn.ID(id),
		Arrival:    arrival,
		Deadline:   deadline,
		Length:     length,
		Weight:     weight,
		Finished:   true,
		FinishTime: finish,
	}
}

func set(t *testing.T, txns ...*txn.Transaction) *txn.Set {
	t.Helper()
	s, err := txn.NewSet(txns)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return s
}

func TestComputeDefinitions(t *testing.T) {
	// T0: on time. T1: 4 tardy, weight 3. T2: 2 tardy, weight 1.
	s := set(t,
		finished(0, 0, 10, 5, 2, 8),
		finished(1, 0, 10, 5, 3, 14),
		finished(2, 1, 10, 4, 1, 12),
	)
	sum, err := Compute(s, 14)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum.AvgTardiness, (0.0+4+2)/3; got != want {
		t.Errorf("AvgTardiness = %v, want %v (Definition 4)", got, want)
	}
	if got, want := sum.AvgWeightedTardiness, (0.0*2+4*3+2*1)/3; got != want {
		t.Errorf("AvgWeightedTardiness = %v, want %v (Definition 5)", got, want)
	}
	if sum.MaxTardiness != 4 {
		t.Errorf("MaxTardiness = %v", sum.MaxTardiness)
	}
	if sum.MaxWeightedTardiness != 12 {
		t.Errorf("MaxWeightedTardiness = %v, want 12 (4*3)", sum.MaxWeightedTardiness)
	}
	if got, want := sum.MissRatio, 2.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("MissRatio = %v, want %v", got, want)
	}
	if got, want := sum.AvgResponseTime, (8.0+14+11)/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgResponseTime = %v, want %v", got, want)
	}
	if sum.Makespan != 14 {
		t.Errorf("Makespan = %v", sum.Makespan)
	}
	if sum.TotalWork != 14 {
		t.Errorf("TotalWork = %v", sum.TotalWork)
	}
	if sum.Utilization != 1 {
		t.Errorf("Utilization = %v", sum.Utilization)
	}
}

func TestComputeStretch(t *testing.T) {
	s := set(t, finished(0, 0, 100, 4, 1, 8)) // response 8 over length 4
	sum, err := Compute(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sum.AvgStretch != 2 {
		t.Errorf("AvgStretch = %v, want 2", sum.AvgStretch)
	}
}

func TestComputeRejectsUnfinished(t *testing.T) {
	u := finished(0, 0, 10, 5, 1, 8)
	u.Finished = false
	s := set(t, u)
	if _, err := Compute(s, 0); err == nil || !strings.Contains(err.Error(), "unfinished") {
		t.Fatalf("err = %v", err)
	}
}

func TestComputeEmpty(t *testing.T) {
	s := set(t)
	sum, err := Compute(s, 0)
	if err != nil || sum.N != 0 {
		t.Fatalf("sum=%+v err=%v", sum, err)
	}
}

func TestPercentiles(t *testing.T) {
	// 100 transactions with tardiness 1..100 (deadline 0 offsets).
	txns := make([]*txn.Transaction, 100)
	for i := range txns {
		txns[i] = finished(i, 0, 1, 1, 1, float64(i+2)) // tardiness i+1
	}
	s := set(t, txns...)
	sum, err := Compute(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.TardinessP50-50.5) > 0.01 {
		t.Errorf("P50 = %v, want ~50.5", sum.TardinessP50)
	}
	if sum.TardinessP99 < 99 || sum.TardinessP99 > 100 {
		t.Errorf("P99 = %v", sum.TardinessP99)
	}
	if sum.TardinessP95 < 95 || sum.TardinessP95 > 96.1 {
		t.Errorf("P95 = %v", sum.TardinessP95)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if sortedPercentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
	if sortedPercentile([]float64{7}, 0.99) != 7 {
		t.Error("singleton percentile")
	}
	if got := sortedPercentile([]float64{1, 3}, 0.5); got != 2 {
		t.Errorf("interpolated percentile = %v, want 2", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := set(t, finished(0, 0, 10, 5, 1, 8))
	sum, _ := Compute(s, 5)
	if !strings.Contains(sum.String(), "n=1") {
		t.Errorf("String() = %q", sum.String())
	}
}
