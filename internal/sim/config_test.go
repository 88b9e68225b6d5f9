package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestServersValidatedBeforeDefaulting is the regression test for the bug
// where Run validated cfg.Servers only after the zero value had been
// defaulted to one, so a negative count silently ran on a single server.
func TestServersValidatedBeforeDefaulting(t *testing.T) {
	cfg := workload.Default(0.5, 1)
	cfg.N = 10

	for _, servers := range []int{-1, -3} {
		if _, err := New(Config{Servers: servers}).Run(workload.MustGenerate(cfg), sched.NewFCFS()); err == nil {
			t.Fatalf("Servers: %d accepted; want validation error", servers)
		}
	}

	// The zero value still means one server.
	one, err := New(Config{Servers: 1}).Run(workload.MustGenerate(cfg), sched.NewFCFS())
	if err != nil {
		t.Fatal(err)
	}
	zero, err := New(Config{}).Run(workload.MustGenerate(cfg), sched.NewFCFS())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, zero) {
		t.Fatalf("Servers: 0 should default to one server:\nzero %+v\none  %+v", zero, one)
	}
}

// TestStepCap: NewKernel caps a run's steps at StepCap — 8n+64, scaled by
// the fault plan's restart budget plus 16 steps per outage window, doubled
// plus 2n² with read/write sets — and a kernel whose cap is lowered fails
// its next step with an error naming the cap and the done/total counts.
func TestStepCap(t *testing.T) {
	for _, c := range []struct {
		name string
		spec workload.Config
		cfg  Config
		want int
	}{
		{"plain", workload.Default(0.5, 1).WithN(20), Config{}, 8*20 + 64},
		{"faults+keys", workload.Default(0.5, 1).WithN(20).WithContention(keepKeys), Config{Faults: hammerPlan()}, 2*((8*20+64)*4+16*2) + 2*20*20},
	} {
		set := workload.MustGenerate(c.spec)
		k, err := NewKernel(c.cfg, set, sched.NewEDF())
		if err != nil {
			t.Fatal(err)
		}
		if k.maxSteps != c.want {
			t.Fatalf("%s: cap %d, want %d", c.name, k.maxSteps, c.want)
		}
	}
	set := workload.MustGenerate(workload.Default(0.5, 1).WithN(20))
	k, err := NewKernel(Config{}, set, sched.NewEDF())
	if err != nil {
		t.Fatal(err)
	}
	k.maxSteps = 8
	arr := NewArrivals(set)
	for step := 1; ; step++ {
		at, err := k.Next(arr.Next())
		if err != nil {
			want := fmt.Sprintf("exceeded 8 scheduling steps with %d/20 transactions complete", k.Counts().Done)
			if step != 9 || !strings.Contains(err.Error(), want) {
				t.Fatalf("step %d: %v, want step 9 to fail with %q", step, err, want)
			}
			if k.Counts().Done == 0 {
				t.Fatal("nothing committed within the cap: the counts are not shown")
			}
			return
		}
		k.Advance(at)
		arr.Deliver(&k)
	}
}
