// Package queueing provides closed-form queueing-theory baselines used to
// validate the discrete-event simulator. The paper's workload is an M/G/1
// system — Poisson arrivals, general (bounded Zipf) service times, one
// backend database server — so classic results give exact expectations that
// the simulator must converge to:
//
//   - Pollaczek-Khinchine: the mean waiting time under any non-preemptive
//     work-conserving discipline that ignores service times (e.g. FCFS) is
//     E[W] = lambda * E[S^2] / (2 * (1 - rho)).
//   - Utilization: the long-run busy fraction equals rho = lambda * E[S].
//
// These identities back the simulator's correctness tests: a bug in event
// ordering, preemption accounting, or the workload generator shows up as a
// systematic deviation from the formulas.
package queueing

import (
	"fmt"

	"repro/internal/rng"
)

// MG1 captures an M/G/1 queue with arrival rate Lambda and service-time
// distribution moments ES (mean) and ES2 (second moment).
type MG1 struct {
	Lambda float64 // arrivals per time unit
	ES     float64 // E[S]
	ES2    float64 // E[S^2]
}

// FromZipf constructs the M/G/1 model matching the paper's workload: service
// times from the bounded Zipf distribution z and arrival rate chosen so that
// utilization equals rho (rate = rho / E[S], Table I).
//
//lint:testonly oracle: TestSimulatorMatchesPollaczekKhinchine checks the simulator against this model
func FromZipf(z *rng.Zipf, rho float64) (MG1, error) {
	if rho <= 0 || rho >= 1 {
		return MG1{}, fmt.Errorf("queueing: utilization %v outside (0, 1)", rho)
	}
	es := z.Mean()
	var es2 float64
	for v := z.Min(); v <= z.Max(); v++ {
		es2 += z.Prob(v) * float64(v) * float64(v)
	}
	return MG1{Lambda: rho / es, ES: es, ES2: es2}, nil
}

// Rho returns the offered load lambda * E[S].
func (q MG1) Rho() float64 { return q.Lambda * q.ES }

// Stable reports whether the queue has a stationary distribution (rho < 1).
func (q MG1) Stable() bool { return q.Rho() < 1 }

// MeanWait returns the Pollaczek-Khinchine mean waiting time (time in queue,
// excluding service) under FCFS. It panics on an unstable queue, where the
// wait diverges.
func (q MG1) MeanWait() float64 {
	if !q.Stable() {
		panic(fmt.Sprintf("queueing: MeanWait on unstable queue (rho=%v)", q.Rho()))
	}
	return q.Lambda * q.ES2 / (2 * (1 - q.Rho()))
}

// MeanResponse returns the mean time in system E[T] = E[W] + E[S].
//
//lint:testonly oracle: an M/G/1 closed form of the queueing tests of the simulator
func (q MG1) MeanResponse() float64 { return q.MeanWait() + q.ES }

// MeanQueueLength returns the mean number in queue via Little's law,
// L_q = lambda * E[W].
//
//lint:testonly oracle: an M/G/1 closed form of the queueing tests of the simulator
func (q MG1) MeanQueueLength() float64 { return q.Lambda * q.MeanWait() }

// MeanInSystem returns the mean number in system, L = lambda * E[T].
//
//lint:testonly oracle: an M/G/1 closed form of the queueing tests of the simulator
func (q MG1) MeanInSystem() float64 { return q.Lambda * q.MeanResponse() }

// SCV returns the squared coefficient of variation of the service times,
// (E[S^2] - E[S]^2) / E[S]^2 — a useful summary of how far the Zipf workload
// is from exponential (SCV 1) or deterministic (SCV 0) service.
//
//lint:testonly oracle: an M/G/1 closed form of the queueing tests of the simulator
func (q MG1) SCV() float64 {
	return (q.ES2 - q.ES*q.ES) / (q.ES * q.ES)
}
