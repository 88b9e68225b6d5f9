package metrics

import (
	"fmt"
	"math"
)

// Stream accumulates scalar observations with Welford's online algorithm,
// giving numerically stable mean and variance without storing samples. The
// experiment harness uses one Stream per (figure, policy, x-value) cell to
// average the five seeded runs the paper prescribes.
type Stream struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (s *Stream) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Stream) N() int { return s.n }

// Mean returns the sample mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Stream) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns a normal-approximation 95% confidence half-width around the
// mean. With the paper's five runs per cell this is a rough but useful
// stability indicator for EXPERIMENTS.md.
func (s *Stream) CI95() float64 { return 1.96 * s.StdErr() }

// String renders "mean ± ci95 (n)".
func (s *Stream) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean(), s.CI95(), s.n)
}
