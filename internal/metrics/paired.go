package metrics

import "math"

// Paired accumulates paired observations of two policies measured on
// identical workloads (same seed, same transactions) — the right way to
// compare schedulers, because pairing removes the workload-to-workload
// variance that dominates independent comparisons. It reports the mean
// difference and a paired t statistic.
type Paired struct {
	a, b  Stream
	diffs Stream
}

// Add records one paired observation: metric value under policy A and under
// policy B on the same workload.
//
//lint:testonly experiment tests pair policies' per-seed results through Paired
func (p *Paired) Add(a, b float64) {
	p.a.Add(a)
	p.b.Add(b)
	p.diffs.Add(a - b)
}

// MeanDiff returns the mean of A-B: positive means A is larger (worse, for
// tardiness metrics).
//
//lint:testonly experiment tests assert the direction of ASETS*'s gains through it
func (p *Paired) MeanDiff() float64 { return p.diffs.Mean() }

// TStatistic returns the paired t statistic meanDiff / (sd/sqrt(n)). It is
// zero when fewer than two pairs or zero variance with zero mean.
func (p *Paired) TStatistic() float64 {
	if p.diffs.N() < 2 {
		return 0
	}
	se := p.diffs.StdErr()
	if se == 0 {
		if p.diffs.Mean() == 0 {
			return 0
		}
		return math.Inf(sign(p.diffs.Mean()))
	}
	return p.diffs.Mean() / se
}

// Significant05 reports whether the mean difference is significant at the
// 5% level using the normal approximation (|t| > 1.96). With the paper's
// five seeds this is conservative guidance, not a formal test; the
// experiment tables carry the full CIs.
//
//lint:testonly experiment tests assert ASETS*'s gains are significant through it
func (p *Paired) Significant05() bool {
	t := p.TStatistic()
	return !math.IsNaN(t) && math.Abs(t) > 1.96
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}
