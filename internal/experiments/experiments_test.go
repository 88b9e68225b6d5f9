package experiments

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fastOpts keeps shape tests affordable: smaller workloads and three seeds,
// with full schedule validation enabled.
func fastOpts() Options {
	return Options{
		N:        300,
		Seeds:    []uint64{11, 22, 33},
		Validate: true,
	}
}

func TestGrids(t *testing.T) {
	full := UtilizationGrid()
	if len(full) != 10 || full[0] != 0.1 || full[9] != 1.0 {
		t.Fatalf("grid = %v", full)
	}
	if lo := LowUtilizationGrid(); len(lo) != 5 || lo[4] != 0.5 {
		t.Fatalf("low grid = %v", lo)
	}
	if hi := HighUtilizationGrid(); len(hi) != 5 || hi[0] != 0.6 {
		t.Fatalf("high grid = %v", hi)
	}
}

func TestCrossoverHelper(t *testing.T) {
	xs := []float64{1, 2, 3}
	a := []float64{1, 2, 3}
	b := []float64{2, 2, 1}
	if got := Crossover(xs, a, b); got != 3 {
		t.Fatalf("crossover = %v, want 3", got)
	}
	if got := Crossover(xs, b, a); got != 1 {
		t.Fatalf("crossover = %v, want 1", got)
	}
	if got := Crossover(xs, a, a); got != -1 {
		t.Fatalf("crossover of identical series = %v, want -1", got)
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(Registry))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
	for _, want := range []string{"fig8", "fig14", "fig17", "tab1", "alpha"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing %s", want)
		}
	}
}

func TestSweepPolicyCountMismatch(t *testing.T) {
	_, err := sweep(fastOpts(), []float64{0.1, 0.2},
		func(x float64) []Policy {
			if x > 0.15 {
				return []Policy{{Name: "EDF", New: sched.NewEDF}}
			}
			return []Policy{{Name: "EDF", New: sched.NewEDF}, {Name: "SRPT", New: sched.NewSRPT}}
		},
		func(x float64, seed uint64) workload.Config { return workload.Default(x, seed) })
	if err == nil || !strings.Contains(err.Error(), "policies") {
		t.Fatalf("err = %v", err)
	}
}

// TestFig8Shape: at low utilization EDF beats FCFS, and ASETS* stays within
// noise of the best policy at every point.
func TestFig8Shape(t *testing.T) {
	res, err := Fig8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := res.Figure
	if fig.ID != "fig8" || len(fig.Series) != 5 || len(fig.X) != 5 {
		t.Fatalf("figure shape: %+v", fig)
	}
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Name] = s.Y
	}
	// At the top of the low range FCFS must be clearly worse than EDF.
	last := len(fig.X) - 1
	if !(series["EDF"][last] < series["FCFS"][last]) {
		t.Errorf("EDF (%v) not better than FCFS (%v) at U=0.5", series["EDF"][last], series["FCFS"][last])
	}
	// ASETS* never does much worse than the best baseline.
	for i := range fig.X {
		best := series["FCFS"][i]
		for _, name := range []string{"LS", "EDF", "SRPT"} {
			if series[name][i] < best {
				best = series[name][i]
			}
		}
		if series["ASETS*"][i] > best*1.25+0.5 {
			t.Errorf("U=%v: ASETS* %v far above best baseline %v", fig.X[i], series["ASETS*"][i], best)
		}
	}
}

// TestFig9Shape: under overload SRPT beats EDF and ASETS* tracks or beats
// SRPT.
func TestFig9Shape(t *testing.T) {
	res, err := Fig9(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range res.Figure.Series {
		series[s.Name] = s.Y
	}
	last := len(res.Figure.X) - 1 // utilization 1.0
	if !(series["SRPT"][last] < series["EDF"][last]) {
		t.Errorf("SRPT (%v) not better than EDF (%v) at U=1.0", series["SRPT"][last], series["EDF"][last])
	}
	if series["ASETS*"][last] > series["SRPT"][last]*1.15 {
		t.Errorf("ASETS* (%v) well above SRPT (%v) at U=1.0", series["ASETS*"][last], series["SRPT"][last])
	}
}

// TestFig10Shape: the normalized ratios stay at or below ~1 everywhere.
func TestFig10Shape(t *testing.T) {
	res, err := Fig10(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Figure.Series {
		for i, v := range s.Y {
			if v > 1.2 {
				t.Errorf("%s at U=%v is %v, want <= ~1", s.Name, res.Figure.X[i], v)
			}
		}
	}
	if len(res.Observations) == 0 {
		t.Error("no observations recorded")
	}
}

// TestCrossoverMovesRightWithKmax reproduces the paper's finding that looser
// deadlines (larger kmax) delay the EDF/SRPT crossover. Compares kmax=1
// against kmax=4.
func TestCrossoverMovesRightWithKmax(t *testing.T) {
	opts := fastOpts()
	xs := UtilizationGrid()
	run := func(kmax float64) float64 {
		policies := []Policy{
			{Name: "EDF", New: sched.NewEDF},
			{Name: "SRPT", New: sched.NewSRPT},
		}
		res, err := sweep(opts, xs, fixed(policies...), func(x float64, seed uint64) workload.Config {
			cfg := workload.Default(x, seed)
			cfg.KMax = kmax
			return cfg
		})
		if err != nil {
			t.Fatal(err)
		}
		edf, _ := means(res.avgTardiness[0])
		srpt, _ := means(res.avgTardiness[1])
		return Crossover(xs, edf, srpt)
	}
	tight := run(1)
	loose := run(4)
	if tight < 0 || loose < 0 {
		t.Skipf("no crossover observed at this scale (tight=%v loose=%v)", tight, loose)
	}
	if loose < tight {
		t.Errorf("crossover moved left with looser deadlines: kmax=1 -> %v, kmax=4 -> %v", tight, loose)
	}
}

// TestFig14Shape: workflow-aware ASETS* does not lose to Ready at high load.
func TestFig14Shape(t *testing.T) {
	res, err := Fig14(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range res.Figure.Series {
		series[s.Name] = s.Y
	}
	last := len(res.Figure.X) - 1
	if series["ASETS*"][last] > series["Ready"][last]*1.05 {
		t.Errorf("ASETS* (%v) worse than Ready (%v) at U=1.0", series["ASETS*"][last], series["Ready"][last])
	}
}

// TestFig15Shape: the general case — ASETS* at or below both EDF and HDF on
// weighted tardiness at overload.
func TestFig15Shape(t *testing.T) {
	res, err := Fig15(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range res.Figure.Series {
		series[s.Name] = s.Y
	}
	last := len(res.Figure.X) - 1
	best := series["EDF"][last]
	if series["HDF"][last] < best {
		best = series["HDF"][last]
	}
	if series["ASETS*"][last] > best*1.1 {
		t.Errorf("ASETS* (%v) above best of EDF/HDF (%v) at U=1.0", series["ASETS*"][last], best)
	}
}

// TestFig16And17TradeOff: raising the activation rate must not increase the
// worst case relative to plain ASETS* beyond noise, and the average-case
// cost stays bounded.
func TestFig16And17TradeOff(t *testing.T) {
	opts := fastOpts()
	res16, err := Fig16(opts)
	if err != nil {
		t.Fatal(err)
	}
	res17, err := Fig17(opts)
	if err != nil {
		t.Fatal(err)
	}
	base16 := res16.Figure.Series[0].Y
	bal16 := res16.Figure.Series[1].Y
	last := len(base16) - 1
	if bal16[last] > base16[last]*1.3 {
		t.Errorf("balance-aware worst case (%v) much worse than plain (%v) at max rate", bal16[last], base16[last])
	}
	base17 := res17.Figure.Series[0].Y
	bal17 := res17.Figure.Series[1].Y
	if bal17[last] > base17[last]*1.5 {
		t.Errorf("balance-aware average case (%v) wildly above plain (%v)", bal17[last], base17[last])
	}
}

// TestTable1RealizedUtilization: the generator's realized utilization tracks
// the target below saturation.
func TestTable1RealizedUtilization(t *testing.T) {
	res, err := Table1(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	realized := res.Figure.Series[0].Y
	xs := res.Figure.X
	for i, x := range xs {
		if x > 0.8 {
			continue // near saturation the busy fraction saturates
		}
		if diff := realized[i] - x; diff > 0.12 || diff < -0.12 {
			t.Errorf("target %v, realized %v", x, realized[i])
		}
	}
}

// TestAblationRuleRuns exercises the decision-rule ablation end to end.
func TestAblationRuleRuns(t *testing.T) {
	res, err := AblationRule(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figure.Series) != 2 {
		t.Fatalf("series = %d", len(res.Figure.Series))
	}
}

// TestAblationCountBalanceRuns exercises the count-based balance sweep.
func TestAblationCountBalanceRuns(t *testing.T) {
	res, err := AblationCountBalance(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figure.Series) != 4 {
		t.Fatalf("series = %d", len(res.Figure.Series))
	}
}

// TestASETSSignificantlyBeatsStaticsAtCrossover uses paired comparison
// (same workloads, per-seed pairing) to check the headline claim with
// statistical teeth: at the crossover load, ASETS* improves on BOTH static
// policies with |t| > 1.96 over 20 seeds.
func TestASETSSignificantlyBeatsStaticsAtCrossover(t *testing.T) {
	const util = 0.6
	var vsEDF, vsSRPT metrics.Paired
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := workload.Default(util, seed)
		cfg.N = 400
		run := func(p Policy) float64 {
			set := workload.MustGenerate(cfg)
			sum, err := sim.New(sim.Config{}).Run(set, p.New())
			if err != nil {
				t.Fatal(err)
			}
			return sum.AvgTardiness
		}
		edf := run(Policy{Name: "EDF", New: sched.NewEDF})
		srpt := run(Policy{Name: "SRPT", New: sched.NewSRPT})
		asets := run(asetsPolicy())
		vsEDF.Add(edf, asets)
		vsSRPT.Add(srpt, asets)
	}
	if !vsEDF.Significant05() || vsEDF.MeanDiff() <= 0 {
		t.Errorf("ASETS* vs EDF not significantly better: diff %v, t %v", vsEDF.MeanDiff(), vsEDF.TStatistic())
	}
	if !vsSRPT.Significant05() || vsSRPT.MeanDiff() <= 0 {
		t.Errorf("ASETS* vs SRPT not significantly better: diff %v, t %v", vsSRPT.MeanDiff(), vsSRPT.TStatistic())
	}
}

// TestEveryRegisteredExperimentRunsTiny is the integration smoke: every
// registry entry completes without error on a tiny configuration and yields
// a renderable figure.
func TestEveryRegisteredExperimentRunsTiny(t *testing.T) {
	opts := Options{N: 120, Seeds: []uint64{5}, Validate: true}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Registry[id](opts)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if res.Figure == nil || len(res.Figure.Series) == 0 {
				t.Fatalf("%s: empty figure", id)
			}
			if res.PaperClaim == "" {
				t.Errorf("%s: missing paper claim", id)
			}
			if out := res.Figure.Table(); out == "" {
				t.Errorf("%s: empty table", id)
			}
			if out := res.Figure.CSV(); out == "" {
				t.Errorf("%s: empty csv", id)
			}
		})
	}
}
