package metrics

import (
	"fmt"
	"math"
)

// Paired accumulates paired observations of two policies measured on
// identical workloads (same seed, same transactions) — the right way to
// compare schedulers, because pairing removes the workload-to-workload
// variance that dominates independent comparisons. It reports the mean
// difference, its confidence interval, and a paired t statistic.
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

// N returns the number of pairs.
func (p *Paired) N() int { return p.diffs.N() }

// MeanA and MeanB return the per-policy means.
func (p *Paired) MeanA() float64 { return p.a.Mean() }
func (p *Paired) MeanB() float64 { return p.b.Mean() }

// MeanDiff returns the mean of A-B: positive means A is larger (worse, for
// tardiness metrics).
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

// CI95 returns the 95% half-width on the mean difference.
func (p *Paired) CI95() float64 { return p.diffs.CI95() }

// String renders a one-line summary.
func (p *Paired) String() string {
	return fmt.Sprintf("A=%.4f B=%.4f diff=%.4f±%.4f (t=%.2f, n=%d)",
		p.MeanA(), p.MeanB(), p.MeanDiff(), p.CI95(), p.TStatistic(), p.N())
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}
