package core

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/pq"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// agingProbe counts the T_old comparator calls each balance-aware
// activation makes: Init swaps in a T_old heap whose comparator counts, and
// Next attributes the calls made inside it to the activation it announced.
type agingProbe struct {
	*ASETSStar
	calls, activated int     // comparator calls so far; activations announced
	perActivation    []int   // comparator calls of each activation's Next
	held             float64 // sum over activations of the candidates held
}

func (p *agingProbe) Init(set *txn.Set) {
	p.ASETSStar.Init(set)
	p.old = pq.NewHeap(func(x, y *txn.Transaction) bool {
		p.calls++
		return olderThan(x, y)
	})
}

func (p *agingProbe) Next(now float64) *txn.Transaction {
	calls, activated, held := p.calls, p.activated, p.old.Len()
	t := p.ASETSStar.Next(now)
	if p.activated > activated {
		p.perActivation = append(p.perActivation, p.calls-calls)
		p.held += float64(held)
	}
	return t
}

// Emit counts the activations ASETS* announces.
func (p *agingProbe) Emit(ev obs.Event) {
	if ev.Kind == obs.KindAging {
		p.activated++
	}
}

// TestAgingActivationScales: balance-aware ASETS* finds T_old at the top of
// an indexed heap, so an activation costs O(log n) comparator calls however
// large the backlog. Under overload (weighted Table I at utilization 1.2,
// one server, time activation at rate 0.01) the backlog of ready
// transactions grows with n, at 16n at least 8 times what it is at n, and
// at n and 16n the comparator calls of every activation must stay within
// 3·log2 of the run's size. Scanning the candidates, as T_old's lookup once did,
// would cost one step per candidate.
func TestAgingActivationScales(t *testing.T) {
	const n = 2000
	var held0 float64 // the candidates an activation held at n
	for _, size := range []int{n, 16 * n} {
		set := workload.MustGenerate(workload.Default(1.2, 1).WithWeights().WithN(size))
		p := &agingProbe{ASETSStar: New(WithTimeActivation(0.01))}
		p.SetSink(p)
		if _, err := sim.New(sim.Config{}).Run(set, p); err != nil {
			t.Fatal(err)
		}
		if len(p.perActivation) == 0 {
			t.Fatalf("n=%d: no activation", size)
		}
		worst, sum := 0, 0
		for _, c := range p.perActivation {
			worst, sum = max(worst, c), sum+c
		}
		held := p.held / float64(len(p.perActivation))
		t.Logf("n=%d: %d activations holding %.0f candidates on average: %.1f comparator calls each on average, %d at most",
			size, len(p.perActivation), held, float64(sum)/float64(len(p.perActivation)), worst)
		if bound := 3 * math.Log2(float64(size)); float64(worst) > bound {
			t.Errorf("n=%d: an activation made %d comparator calls, want at most 3·log2(n) = %.1f", size, worst, bound)
		}
		if size == n {
			held0 = held
		} else if held < 8*held0 {
			t.Errorf("n=%d: activations held %.0f candidates on average, at n=%d %.0f: the backlog does not grow with n", size, held, n, held0)
		}
	}
}
