package sim

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// sortedArrivals is the reference arrival order: a sorted copy of the set,
// whatever order its transactions are in.
func sortedArrivals(set *txn.Set) Arrivals {
	a := slices.Clone(set.Txns)
	slices.SortFunc(a, func(x, y *txn.Transaction) int {
		return cmp.Or(cmp.Compare(x.Arrival, y.Arrival), cmp.Compare(x.ID, y.ID))
	})
	return a
}

// nestedBursts compresses an inner window first and the window around it
// second, so transactions past the inner window move behind the ones inside
// it: the set leaves arrival order.
func nestedBursts(horizon float64) *fault.Plan {
	return &fault.Plan{Bursts: []fault.Burst{
		{At: horizon * 0.4, Width: horizon * 0.05},
		{At: horizon * 0.2, Width: horizon * 0.5},
	}}
}

// TestNewArrivalsView: on a set in arrival order NewArrivals is the set
// itself and leaves it untouched; on a set a burst plan reordered it equals
// the sorted copy, and the set still stays in ID order.
func TestNewArrivalsView(t *testing.T) {
	set := workload.MustGenerate(workload.Default(0.9, 3).WithN(400).WithWorkflows(4, 1))
	before := slices.Clone(set.Txns)
	arr := NewArrivals(set)
	if len(arr) != set.Len() || &arr[0] != &set.Txns[0] {
		t.Fatal("NewArrivals copied a set already in arrival order")
	}
	if !slices.Equal(set.Txns, before) {
		t.Fatal("NewArrivals reordered the set")
	}
	if !slices.Equal(arr, sortedArrivals(set)) {
		t.Fatal("the view is not in arrival order")
	}

	plan := nestedBursts(set.Txns[set.Len()-1].Arrival)
	if plan.ApplyBursts(set) == 0 {
		t.Fatal("the burst plan moved nothing")
	}
	want := sortedArrivals(set)
	if slices.Equal(set.Txns, want) {
		t.Fatal("the burst plan left the set in arrival order")
	}
	if got := NewArrivals(set); !slices.Equal(got, want) {
		t.Fatal("NewArrivals on a reordered set differs from the sorted copy")
	}
	if !slices.Equal(set.Txns, before) {
		t.Fatal("NewArrivals reordered the set")
	}
}

// referenceRun is Sim.Run over the reference arrival order, returning the
// schedule digest and the summary.
func referenceRun(t *testing.T, cfg Config, set *txn.Set, s sched.Scheduler) (uint64, *metrics.Summary) {
	t.Helper()
	k, err := NewKernel(cfg, set, s)
	if err != nil {
		t.Fatal(err)
	}
	arr := sortedArrivals(set)
	for !k.Finished() {
		at, err := k.Next(arr.Next())
		if err == nil && math.IsInf(at, 1) {
			err = k.Deadlock()
		}
		if err != nil {
			t.Fatal(err)
		}
		k.Advance(at)
		arr.Deliver(&k)
	}
	k.Close()
	sum, err := k.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return scheduleDigest(cfg.Recorder), sum
}

// TestRunArrivalsMatchSorted: Sim.Run schedules exactly as over a sorted
// copy of the arrivals, on a set in arrival order (the view) and on one a
// burst plan reordered (the copy).
func TestRunArrivalsMatchSorted(t *testing.T) {
	gen := workload.Default(0.85, 0xA5E75).WithWorkflows(4, 1).WithWeights()
	gen.N = 300
	horizon := workload.MustGenerate(gen).Txns[gen.N-1].Arrival
	for _, burst := range []*fault.Plan{nil, nestedBursts(horizon)} {
		for _, mk := range []func() sched.Scheduler{
			func() sched.Scheduler { return core.New() }, sched.NewEDF, sched.NewFCFS,
		} {
			name := mk().Name()
			a, b := workload.MustGenerate(gen), workload.MustGenerate(gen)
			recA, recB := &trace.Recorder{}, &trace.Recorder{}
			sum, err := New(Config{Recorder: recA, Faults: burst}).Run(a, mk())
			if err != nil {
				t.Fatal(err)
			}
			want, ref := referenceRun(t, Config{Recorder: recB, Faults: burst}, b, mk())
			if got := scheduleDigest(recA); got != want {
				t.Errorf("%s (bursts %v): digest %#x, over sorted arrivals %#x", name, burst != nil, got, want)
			}
			if !reflect.DeepEqual(sum, ref) {
				t.Errorf("%s (bursts %v): summary %+v, over sorted arrivals %+v", name, burst != nil, sum, ref)
			}
		}
	}
}
