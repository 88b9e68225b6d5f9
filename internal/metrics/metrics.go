// Package metrics computes the performance measures of the paper's
// evaluation: per-transaction tardiness (Definition 3), average tardiness
// (Definition 4), average weighted tardiness (Definition 5), and the maximum
// weighted tardiness used to characterize worst-case performance in the
// balance-aware experiments (Section IV-F) — plus supporting measures
// (deadline miss ratio, response time, realized utilization) used by the
// tests and the extended benchmarks.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/txn"
)

// Summary aggregates one simulation run over a complete workload. When an
// admission controller shed transactions, every tardiness/response aggregate
// covers the admitted (completed) transactions only; Shed counts the rest.
type Summary struct {
	// N is the number of admitted (completed) transactions.
	N int
	// Shed is the number of transactions the admission controller rejected;
	// zero for runs without overload protection.
	Shed int
	// Aborts, Restarts and Stalls count injected faults (zero without a
	// fault plan); the sim fills them in after Compute.
	Aborts   int
	Restarts int
	Stalls   int
	// ValidateFails counts commit-time validation failures — contention-
	// driven re-executions (zero without a keyspace, docs/CONTENTION.md);
	// the run loops fill it in after Compute.
	ValidateFails int
	// AvgTardiness is (1/N) * sum t_i (Definition 4).
	AvgTardiness float64
	// AvgWeightedTardiness is (1/N) * sum t_i*w_i (Definition 5).
	AvgWeightedTardiness float64
	// MaxTardiness is max_i t_i.
	MaxTardiness float64
	// MaxWeightedTardiness is max_i t_i*w_i — the worst-case metric of
	// Figure 16.
	MaxWeightedTardiness float64
	// MissRatio is the fraction of transactions that missed their deadline.
	MissRatio float64
	// AvgResponseTime is the mean of f_i - a_i.
	AvgResponseTime float64
	// AvgStretch is the mean of (f_i - a_i) / l_i, a slowdown measure.
	AvgStretch float64
	// TotalWork is the sum of transaction lengths.
	TotalWork float64
	// Makespan is the time the last transaction finished.
	Makespan float64
	// BusyTime is the total time the backend served transactions.
	BusyTime float64
	// Utilization is BusyTime / Makespan, the realized load.
	Utilization float64
	// TardinessP50/P95/P99 are tardiness percentiles across transactions.
	TardinessP50 float64
	TardinessP95 float64
	TardinessP99 float64
}

// Compute derives a Summary from a finished workload. busyTime is the total
// service time the simulator performed (equal to TotalWork for a
// work-conserving schedule that completes everything). Transactions marked
// Shed are excluded from every aggregate and counted in Summary.Shed; any
// other unfinished transaction is an error, because a partial run has no
// meaningful tardiness.
//
// The tardiness percentiles are those of the sorted tardiness values, bit
// for bit, without sorting them: a met deadline has tardiness exactly 0, so
// only the missed ones are kept, and selection puts in place the at most
// six order statistics the three percentiles read.
//
//lint:coldpath end-of-run aggregation, runs once after the event loop drains
func Compute(set *txn.Set, busyTime float64) (*Summary, error) {
	if set.Len() == 0 {
		return &Summary{}, nil
	}
	s := &Summary{BusyTime: busyTime}
	misses, nans, nan := 0, 0, 0.0
	for _, t := range set.Txns {
		if t.Shed {
			s.Shed++
			continue
		}
		if !t.Finished {
			return nil, fmt.Errorf("metrics: transaction %d is unfinished", t.ID)
		}
		s.N++
		ti := t.Tardiness()
		s.AvgTardiness += ti
		s.AvgWeightedTardiness += ti * t.Weight
		if ti > s.MaxTardiness {
			s.MaxTardiness = ti
		}
		if wt := ti * t.Weight; wt > s.MaxWeightedTardiness {
			s.MaxWeightedTardiness = wt
		}
		if ti > 0 {
			misses++
		} else if ti != ti {
			// A NaN deadline or finish time; it sorts first.
			nans, nan = nans+1, ti
		}
		resp := t.FinishTime - t.Arrival
		s.AvgResponseTime += resp
		s.AvgStretch += resp / t.Length
		s.TotalWork += t.Length
		if t.FinishTime > s.Makespan {
			s.Makespan = t.FinishTime
		}
	}
	if s.N == 0 {
		// Everything was shed; there are no completions to average.
		return s, nil
	}
	fn := float64(s.N)
	s.AvgTardiness /= fn
	s.AvgWeightedTardiness /= fn
	s.AvgResponseTime /= fn
	s.AvgStretch /= fn
	s.MissRatio = float64(misses) / fn
	if s.Makespan > 0 {
		s.Utilization = busyTime / s.Makespan
	}

	// Sorted, the tardiness values are the NaNs, the zeros, then the
	// positive values ascending.
	pos := make([]float64, 0, misses)
	for _, t := range set.Txns {
		if ti := t.Tardiness(); ti > 0 && !t.Shed {
			pos = append(pos, ti)
		}
	}
	below := s.N - misses // NaNs and zeros
	at := func(k int) float64 {
		switch {
		case k < nans:
			return nan
		case k < below:
			return 0
		}
		return pos[k-below]
	}
	qs := [...]float64{0.50, 0.95, 0.99}
	// The ranks the percentiles read ascend with p, so each selection works
	// on the values above the previous one.
	from := 0
	for _, p := range qs {
		lo, hi, _ := ranks(s.N, p)
		for _, k := range [...]int{lo, hi} {
			if r := k - below; r >= from {
				selectNth(pos[from:], r-from)
				from = r + 1
			}
		}
	}
	s.TardinessP50 = percentile(s.N, qs[0], at)
	s.TardinessP95 = percentile(s.N, qs[1], at)
	s.TardinessP99 = percentile(s.N, qs[2], at)
	return s, nil
}

// ranks returns the closest ranks lo <= hi around the p-quantile
// (0 <= p <= 1) of n > 0 values and the weight of hi in the interpolation.
func ranks(n int, p float64) (lo, hi int, frac float64) {
	pos := p * float64(n-1)
	lo, hi = int(math.Floor(pos)), int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// percentile returns the p-quantile of n values using linear interpolation
// between closest ranks; at(k) is the k-th smallest value.
func percentile(n int, p float64, at func(k int) float64) float64 {
	if n == 0 {
		return 0
	}
	lo, hi, frac := ranks(n, p)
	if lo == hi {
		return at(lo)
	}
	return at(lo)*(1-frac) + at(hi)*frac
}

// selectNth reorders a so that a[k] is its k-th smallest value, with no
// larger value before it and no smaller one after it (Hoare's FIND with a
// median-of-three pivot). a holds no NaN. A range that has not shrunk to
// one value within 4·log2(len(a)) partitions is sorted instead, which
// bounds the worst case at O(n log n).
func selectNth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for budget := 4 * bits.Len(uint(len(a))); lo < hi; budget-- {
		if budget == 0 {
			slices.Sort(a[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i, j = i+1, j-1
			}
		}
		// a[lo:j+1] <= pivot <= a[i:hi+1], and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// String renders the headline numbers on one line for CLI output.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d avgTard=%.3f avgWTard=%.3f maxWTard=%.3f miss=%.1f%% resp=%.3f util=%.3f",
		s.N, s.AvgTardiness, s.AvgWeightedTardiness, s.MaxWeightedTardiness,
		100*s.MissRatio, s.AvgResponseTime, s.Utilization)
}
