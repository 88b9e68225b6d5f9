package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"regexp"
	"sort"

	"repro/internal/obs"
	"repro/internal/txn"
)

// result is the simulated outcome of one engine run (or, for the sweep,
// of every job of one pool run, folded in job order).
type result struct {
	n         int // transactions submitted
	completed int
	misses    int     // completions past their deadline
	refused   int     // shed by admission or lost to crashes
	sumWT     float64 // weighted tardiness summed over completions
	responses []float64
	digest    uint64 // per-transaction outcomes plus the counts below
	events    uint64 // event-stream digest; 0 without a digest sink

	shed, lost, failovers       int
	crashWindows, crashLost     int
	validateFails, caTxns, jobs int
}

// outcome folds a finished set into a result.
func outcome(set *txn.Set) *result {
	r := &result{n: set.Len(), responses: make([]float64, 0, set.Len())}
	h := fnv.New64a()
	for _, t := range set.Txns {
		flags := uint64(0)
		if t.Finished {
			flags |= 1
		}
		if t.Shed {
			flags |= 2
		}
		put(h, uint64(t.ID), math.Float64bits(t.FinishTime), flags)
		switch {
		case t.Finished:
			r.completed++
			tard := t.Tardiness()
			if tard > 0 {
				r.misses++
			}
			r.sumWT += tard * t.Weight
			r.responses = append(r.responses, t.FinishTime-t.Arrival)
		case t.Shed:
			r.refused++
		}
	}
	r.digest = h.Sum64()
	return r
}

// seal mixes the layer counts into the outcome digest.
func (r *result) seal() {
	h := fnv.New64a()
	put(h, r.digest, uint64(r.shed), uint64(r.lost), uint64(r.failovers),
		uint64(r.crashWindows), uint64(r.crashLost), uint64(r.validateFails))
	r.digest = h.Sum64()
}

// add folds a job's result into a sweep's, in job order.
func (r *result) add(o *result) {
	h := fnv.New64a()
	put(h, r.digest, o.digest)
	r.digest = h.Sum64()
	if o.events != 0 {
		h.Reset()
		put(h, r.events, o.events)
		r.events = h.Sum64()
	}
	r.n += o.n
	r.completed += o.completed
	r.misses += o.misses
	r.refused += o.refused
	r.sumWT += o.sumWT
	r.responses = append(r.responses, o.responses...)
	r.shed += o.shed
	r.lost += o.lost
	r.failovers += o.failovers
	r.crashWindows += o.crashWindows
	r.crashLost += o.crashLost
	r.validateFails += o.validateFails
	r.caTxns += o.caTxns
	r.jobs += o.jobs
}

func put(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// digestSink hashes the event stream in delivery order. It is a full
// SharedSink and BatchSink, like the repository's own sinks.
type digestSink struct{ h hash.Hash64 }

func newDigestSink() *digestSink { return &digestSink{h: fnv.New64a()} }

func (d *digestSink) Emit(ev obs.Event) { d.EmitShared(&ev) }

func (d *digestSink) EmitShared(ev *obs.Event) {
	put(d.h, math.Float64bits(ev.Time), uint64(ev.Kind), uint64(ev.Txn), uint64(ev.Workflow),
		math.Float64bits(ev.Deadline), math.Float64bits(ev.Remaining), math.Float64bits(ev.Tardiness))
	d.h.Write([]byte(ev.Detail))
}

func (d *digestSink) EmitSharedBatch(evs []obs.Event) {
	for i := range evs {
		d.EmitShared(&evs[i])
	}
}

// sum returns the stream digest, or 0 for a nil sink.
func (d *digestSink) sum() uint64 {
	if d == nil {
		return 0
	}
	return d.h.Sum64() | 1
}

// percentiles is the ladder the tail percentile is chosen from.
var percentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// highestPercentile returns the highest percentile of the ladder that has
// at least ten of n samples beyond it, and false when not even the median
// has.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// quantile returns the nearest-rank p-th percentile of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// The epsilon keeps float error in p/100*n from bumping an exact rank.
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name: a letter
// or digit, then at most 63 letters, digits, '_', '.' and '-'.
func validName(s string) bool { return nameRE.MatchString(s) }
