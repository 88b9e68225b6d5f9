// Package slo is the deterministic SLO and alerting layer: declarative
// per-class objectives (target deadline-miss ratio, tardiness/response
// quantile ceilings, queue boundedness) evaluated from simulated time over
// the same tumbling windows as the span layer's sketch series, with
// multi-window burn-rate alert rules whose fire/resolve transitions ride
// the decision-event stream as obs.KindAlertFire/KindAlertResolve events.
//
// Determinism contract: the engine observes only simulated timestamps and
// evaluates rules only at tumbling-window boundaries, so a fixed-seed run
// produces a byte-identical alert stream on every replay, serial or
// parallel (docs/OBSERVABILITY.md, "SLOs and alerting"). The per-event
// observation path is allocation-free; all rule evaluation, gauge
// publication and alert emission happen at window boundaries, off the hot
// path.
package slo

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/txn"
)

// NumClasses is the number of SLA weight classes, matching the span layer's
// light/medium/heavy bucketing (obs.WeightClassIndex).
const NumClasses = obs.NumWeightClasses

// Target is the objective of one weight class. A zero (or negative) field
// disables that rule for the class.
type Target struct {
	// MissRatio is the target deadline-miss ratio: the error-budget rate.
	// At most this fraction of the class's completions may miss their
	// deadline. It feeds the multi-window burn-rate rule.
	MissRatio float64
	// TardinessP95 bounds the per-window p95 tardiness.
	TardinessP95 float64
	// ResponseP99 bounds the per-window p99 response time.
	ResponseP99 float64
	// QueueBound bounds the class backlog (arrived but not yet finished),
	// sampled at window boundaries.
	QueueBound float64
}

// enabled reports whether any rule of the target is active.
func (t Target) enabled() bool {
	return t.MissRatio > 0 || t.TardinessP95 > 0 || t.ResponseP99 > 0 || t.QueueBound > 0
}

// Spec is a full per-class SLO declaration, indexed by weight class.
type Spec struct {
	Classes [NumClasses]Target
}

// DefaultSpec is the stock objective: a 5% deadline-miss budget for every
// class, no quantile or queue ceilings. `-slo default` selects it.
func DefaultSpec() Spec {
	var s Spec
	for i := range s.Classes {
		s.Classes[i].MissRatio = 0.05
	}
	return s
}

// ParseSpec parses the `-slo` flag grammar:
//
//	spec   := "default" | clause (";" clause)*
//	clause := [class ":"] item ("," item)*
//	class  := "light" | "medium" | "heavy" | "*"
//	item   := key "=" value
//	key    := "miss" | "p95" | "p99" | "queue"
//
// A clause without a class (or with class "*") applies to every class;
// later clauses override earlier ones per field. "miss" is the target
// deadline-miss ratio in (0, 1); "p95" the window p95 tardiness ceiling;
// "p99" the window p99 response-time ceiling; "queue" the class backlog
// bound — all positive.
func ParseSpec(s string) (Spec, error) {
	if strings.TrimSpace(s) == "default" {
		return DefaultSpec(), nil
	}
	var spec Spec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			return Spec{}, fmt.Errorf("slo: empty clause in spec %q", s)
		}
		lo, hi := 0, NumClasses
		if i := strings.IndexByte(clause, ':'); i >= 0 {
			switch name := strings.TrimSpace(clause[:i]); name {
			case "*":
			case "light":
				lo, hi = 0, 1
			case "medium":
				lo, hi = 1, 2
			case "heavy":
				lo, hi = 2, 3
			default:
				return Spec{}, fmt.Errorf("slo: unknown class %q (want light, medium, heavy or *)", name)
			}
			clause = clause[i+1:]
		}
		for _, item := range strings.Split(clause, ",") {
			item = strings.TrimSpace(item)
			eq := strings.IndexByte(item, '=')
			if eq < 0 {
				return Spec{}, fmt.Errorf("slo: item %q is not key=value", item)
			}
			key := strings.TrimSpace(item[:eq])
			v, err := strconv.ParseFloat(strings.TrimSpace(item[eq+1:]), 64)
			if err != nil {
				return Spec{}, fmt.Errorf("slo: item %q: %v", item, err)
			}
			if !txn.Finite(v) || v <= 0 {
				return Spec{}, fmt.Errorf("slo: item %q: value must be a finite positive number", item)
			}
			for c := lo; c < hi; c++ {
				switch key {
				case "miss":
					if v >= 1 {
						return Spec{}, fmt.Errorf("slo: miss ratio %v must be in (0, 1)", v)
					}
					spec.Classes[c].MissRatio = v
				case "p95":
					spec.Classes[c].TardinessP95 = v
				case "p99":
					spec.Classes[c].ResponseP99 = v
				case "queue":
					spec.Classes[c].QueueBound = v
				default:
					return Spec{}, fmt.Errorf("slo: unknown key %q (want miss, p95, p99 or queue)", key)
				}
			}
		}
	}
	enabled := false
	for _, t := range spec.Classes {
		if t.enabled() {
			enabled = true
		}
	}
	if !enabled {
		return Spec{}, fmt.Errorf("slo: spec %q enables no rule", s)
	}
	return spec, nil
}

// burnThreshold is the burn ratio (observed miss ratio over target) at which
// the burn rule fires: the budget is being spent at twice the sustainable
// rate.
const burnThreshold = 2

// resolveHold is the fire/resolve hysteresis: a firing rule resolves only
// after this many consecutive healthy windows.
const resolveHold = 2

// Config configures an Engine: the objectives plus the window geometry of
// the alert rules.
type Config struct {
	// Spec holds the per-class objectives.
	Spec Spec
	// Window is the tumbling-window width in simulated time units. It
	// should match the span layer's windowed-sketch width so both series
	// describe the same intervals (default 100).
	Window float64
	// FastWindows and SlowWindows are the burn-rate windows, in whole
	// tumbling windows (defaults 2 and 12). A burn alert fires when the
	// miss-ratio burn over both reaches twice the sustainable rate;
	// ceiling rules fire after FastWindows consecutive breached windows. A
	// firing rule resolves after two consecutive healthy windows.
	FastWindows int
	SlowWindows int
}

// withDefaults fills unset geometry fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 100
	}
	if c.FastWindows == 0 {
		c.FastWindows = 2
	}
	if c.SlowWindows == 0 {
		c.SlowWindows = 12
	}
	return c
}

// Validate reports the first configuration error. Explicit negative (or
// otherwise out-of-range) values are rejected before defaulting, so a typo
// like `-slo-window -5` cannot silently become the default.
//
//lint:coldpath configuration validation runs once at wiring time, before the event loop
func (c Config) Validate() error {
	type field struct {
		name string
		v    float64
	}
	fields := []field{{"window", c.Window}}
	for i, t := range c.Spec.Classes {
		cls := obs.ClassName(i)
		fields = append(fields, field{cls + " miss target", t.MissRatio}, field{cls + " p95 target", t.TardinessP95},
			field{cls + " p99 target", t.ResponseP99}, field{cls + " queue target", t.QueueBound})
	}
	for _, f := range fields {
		if !txn.Finite(f.v) {
			return fmt.Errorf("slo: %s %v must be finite", f.name, f.v)
		}
	}
	if c.Window < 0 {
		return fmt.Errorf("slo: window %v must be positive", c.Window)
	}
	if c.FastWindows < 0 || c.SlowWindows < 0 {
		return fmt.Errorf("slo: burn windows (%d fast, %d slow) must be positive window counts", c.FastWindows, c.SlowWindows)
	}
	c = c.withDefaults()
	if c.SlowWindows <= c.FastWindows {
		return fmt.Errorf("slo: slow burn window %d must exceed the fast window %d", c.SlowWindows, c.FastWindows)
	}
	enabled := false
	for _, t := range c.Spec.Classes {
		if t.enabled() {
			enabled = true
		}
	}
	if !enabled {
		return fmt.Errorf("slo: spec enables no rule")
	}
	return nil
}
