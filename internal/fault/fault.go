// Package fault is the deterministic fault-injection layer of the
// reproduction: transaction abort-and-restart with capped exponential
// backoff, backend stall and crash windows with preemptive-resume recovery,
// and flash-crowd arrival bursts. The paper's evaluation (Section IV) pushes
// the system past saturation but assumes a fault-free backend; this package
// supplies the faults so the overload-protection layer (internal/admit) has
// something real to protect against.
//
// Determinism is the design constraint everything here bends around: a
// fixed-seed fault plan must subject *every* scheduling policy to the
// identical fault schedule, so that A/B comparisons across policies isolate
// the policy. Abort decisions are therefore keyed per (transaction, attempt)
// — a pure function of the plan seed, never of the order in which the run
// reaches completions — and stall/crash/burst windows are fixed instants in
// simulated time. Two runs with the same seed and plan produce byte-identical
// decision-event streams; a zero plan is bit-for-bit invisible (the golden
// tests in internal/sim pin both properties).
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/rng"
	"repro/internal/txn"
)

// WindowKind classifies a backend outage window.
type WindowKind int

const (
	// Stall pauses the backend: no transaction makes progress during the
	// window, but in-flight work is preserved (preemptive-resume recovery).
	Stall WindowKind = iota
	// Crash additionally destroys in-flight work: transactions running when
	// the window opens lose all accumulated progress and restart from
	// scratch once the backend returns.
	Crash
)

// String returns the stable wire name used in plan files and events.
func (k WindowKind) String() string {
	switch k {
	case Stall:
		return "stall"
	case Crash:
		return "crash"
	default:
		panic(fmt.Sprintf("fault: unknown window kind %d", int(k)))
	}
}

// windowKindFromString is the inverse of WindowKind.String.
func windowKindFromString(s string) (WindowKind, error) {
	switch s {
	case "stall", "":
		return Stall, nil
	case "crash":
		return Crash, nil
	default:
		return 0, fmt.Errorf("fault: unknown window kind %q (use \"stall\" or \"crash\")", s)
	}
}

// Window is one backend outage: the backend serves nothing during
// [Start, Start+Duration).
type Window struct {
	// Start is the simulated instant the outage begins.
	Start float64 `json:"start"`
	// Duration is the outage length in simulated time units.
	Duration float64 `json:"duration"`
	// Kind selects stall (pause) or crash (pause + lose in-flight work).
	Kind WindowKind `json:"-"`
}

// End returns the first instant the backend serves again.
func (w Window) End() float64 { return w.Start + w.Duration }

// windowJSON is the wire form of Window (kind as a string).
type windowJSON struct {
	Start    float64 `json:"start"`
	Duration float64 `json:"duration"`
	Kind     string  `json:"kind,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (w Window) MarshalJSON() ([]byte, error) {
	return json.Marshal(windowJSON{Start: w.Start, Duration: w.Duration, Kind: w.Kind.String()})
}

// UnmarshalJSON implements json.Unmarshaler.
func (w *Window) UnmarshalJSON(data []byte) error {
	var wire windowJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	kind, err := windowKindFromString(wire.Kind)
	if err != nil {
		return err
	}
	*w = Window{Start: wire.Start, Duration: wire.Duration, Kind: kind}
	return nil
}

// Burst is one flash-crowd window: every transaction whose arrival falls in
// [At, At+Width) arrives at At instead — the whole window's population hits
// the system at one instant, the "bursty and unpredictable behavior of web
// user populations" the paper's introduction motivates adaptivity with.
// Deadlines are untouched, so the burst only ever tightens the workload.
type Burst struct {
	// At is the instant the crowd lands.
	At float64 `json:"at"`
	// Width is the arrival span compressed into At.
	Width float64 `json:"width"`
}

// Plan is one declarative, seed-deterministic fault schedule. The zero value
// injects nothing and is bit-for-bit equivalent to running without a plan.
type Plan struct {
	// Seed keys the per-(transaction, attempt) abort draws. Independent of
	// the workload seed, so the same workload can replay under many fault
	// schedules.
	Seed uint64 `json:"seed"`
	// AbortProb is the probability that a transaction's k-th completion
	// attempt aborts and restarts (0 disables aborts).
	AbortProb float64 `json:"abort_prob"`
	// MaxRestarts caps the aborts a single transaction can suffer; after
	// that many restarts its next attempt always commits. Zero with a
	// positive AbortProb is rejected by Validate (it would silently disable
	// aborts).
	MaxRestarts int `json:"max_restarts"`
	// BackoffBase is the delay before the first restart; each further
	// restart doubles it. Zero restarts immediately.
	BackoffBase float64 `json:"backoff_base"`
	// BackoffCap bounds the exponential backoff (0 = uncapped).
	BackoffCap float64 `json:"backoff_cap"`
	// Stalls are the backend outage windows, in any order; Validate sorts
	// them and rejects overlaps.
	Stalls []Window `json:"stalls,omitempty"`
	// Bursts are the flash-crowd arrival windows.
	Bursts []Burst `json:"bursts,omitempty"`
}

// Zero reports whether the plan injects nothing at all.
func (p *Plan) Zero() bool {
	return p == nil || (p.AbortProb == 0 && len(p.Stalls) == 0 && len(p.Bursts) == 0)
}

// Validate checks the plan and normalizes it (stall windows sorted by
// start). Every rejection names the offending field and value, so CLI users
// get an actionable message instead of a mid-run panic.
//
//lint:coldpath plan validation runs once at configuration time, before the event loop
func (p *Plan) Validate() error {
	if !txn.Finite(p.AbortProb) || p.AbortProb < 0 || p.AbortProb > 1 {
		return fmt.Errorf("fault: abort_prob %v must be in [0, 1]", p.AbortProb)
	}
	if p.MaxRestarts < 0 {
		return fmt.Errorf("fault: max_restarts %d must be non-negative", p.MaxRestarts)
	}
	if p.AbortProb > 0 && p.MaxRestarts == 0 {
		return fmt.Errorf("fault: abort_prob %v needs max_restarts >= 1 (0 would silently disable aborts)", p.AbortProb)
	}
	if !txn.Finite(p.BackoffBase) || p.BackoffBase < 0 {
		return fmt.Errorf("fault: backoff_base %v must be finite and non-negative", p.BackoffBase)
	}
	if !txn.Finite(p.BackoffCap) || p.BackoffCap < 0 {
		return fmt.Errorf("fault: backoff_cap %v must be finite and non-negative (0 = uncapped)", p.BackoffCap)
	}
	if p.BackoffCap > 0 && p.BackoffCap < p.BackoffBase {
		return fmt.Errorf("fault: backoff_cap %v is below backoff_base %v", p.BackoffCap, p.BackoffBase)
	}
	for i, w := range p.Stalls {
		if !txn.Finite(w.Start) || w.Start < 0 {
			return fmt.Errorf("fault: stall %d starts at %v (must be finite and non-negative)", i, w.Start)
		}
		if !txn.Finite(w.Duration) || w.Duration <= 0 {
			return fmt.Errorf("fault: stall %d has duration %v (must be finite and positive)", i, w.Duration)
		}
	}
	sort.SliceStable(p.Stalls, func(i, j int) bool { return p.Stalls[i].Start < p.Stalls[j].Start })
	for i := 1; i < len(p.Stalls); i++ {
		if p.Stalls[i].Start < p.Stalls[i-1].End() {
			return fmt.Errorf("fault: stall windows %d and %d overlap ([%v,%v) and [%v,%v))",
				i-1, i, p.Stalls[i-1].Start, p.Stalls[i-1].End(), p.Stalls[i].Start, p.Stalls[i].End())
		}
	}
	for i, b := range p.Bursts {
		if !txn.Finite(b.At) || b.At < 0 {
			return fmt.Errorf("fault: burst %d at %v (must be finite and non-negative)", i, b.At)
		}
		if !txn.Finite(b.Width) || b.Width <= 0 {
			return fmt.Errorf("fault: burst %d has width %v (must be finite and positive)", i, b.Width)
		}
	}
	return nil
}

// Parse reads and validates a JSON plan.
func Parse(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and validates a JSON plan file.
func Load(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fault: opening plan: %w", err)
	}
	defer f.Close()
	p, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("fault: plan %s: %w", path, err)
	}
	return p, nil
}

// ApplyBursts compresses arrivals into the plan's flash-crowd instants,
// mutating the set in place, and returns how many transactions moved. The
// transform is idempotent (a moved arrival sits exactly at the window start,
// inside the window, and maps to itself), so replaying the same set under
// several policies sees one identical workload.
func (p *Plan) ApplyBursts(set *txn.Set) int {
	if p == nil || len(p.Bursts) == 0 {
		return 0
	}
	moved := 0
	for _, t := range set.Txns {
		for _, b := range p.Bursts {
			if t.Arrival > b.At && t.Arrival < b.At+b.Width {
				t.Arrival = b.At
				moved++
				break
			}
		}
	}
	return moved
}

// Backoff returns the restart delay after a transaction's k-th abort
// (k >= 1): BackoffBase doubled per prior abort, bounded by BackoffCap.
func (p *Plan) Backoff(k int) float64 {
	if p.BackoffBase == 0 || k < 1 {
		return 0
	}
	d := p.BackoffBase * math.Pow(2, float64(k-1))
	if p.BackoffCap > 0 && d > p.BackoffCap {
		d = p.BackoffCap
	}
	return d
}

// abortDraw is the keyed Bernoulli source: a pure function of (seed, id,
// attempt), so the decision "transaction i aborts on its k-th attempt" is
// identical under every policy and every event ordering.
func (p *Plan) abortDraw(id txn.ID, attempt int) float64 {
	sm := rng.NewSplitMix64(p.Seed ^
		(uint64(id)+1)*0x9e3779b97f4a7c15 ^
		(uint64(attempt)+1)*0xd1342543de82ef95)
	return float64(sm.Next()>>11) / (1 << 53)
}

// held is one aborted transaction waiting out its backoff.
type held struct {
	at float64 // restart instant
	t  *txn.Transaction
}

// Injector executes one Plan over one run: it owns the per-transaction
// attempt counts (with aborts), the backoff queue of aborted transactions, and the stall
// window cursor. Build a fresh Injector per run (sim.NewKernel does this from
// Config.Faults for the simulator and the executor alike); the Plan itself is
// immutable and reusable.
type Injector struct {
	plan     *Plan
	attempts []int
	pending  []held             // sorted by (at, id)
	due      []*txn.Transaction // PopDueRestarts' result, reused across calls
	stallIdx int                // first window with End() > the latest queried instant
	aborts   int
	restarts int
	stalls   int
}

// NewInjector prepares an injector for a workload of n transactions. Only
// a plan with aborts counts attempts per transaction: without them no
// attempt ever aborts, and the injector holds no per-transaction slab.
//
//lint:coldpath injector construction is per-run setup
func NewInjector(p *Plan, n int) *Injector {
	in := &Injector{plan: p}
	if p.AbortProb > 0 {
		in.attempts = make([]int, n)
	}
	return in
}

// Aborts returns the aborts injected so far (including crash losses).
func (in *Injector) Aborts() int { return in.aborts }

// Restarts returns the restarts delivered so far.
func (in *Injector) Restarts() int { return in.restarts }

// StallsEntered returns the outage windows entered so far.
func (in *Injector) StallsEntered() int { return in.stalls }

// Held returns the number of aborted transactions waiting out a backoff.
func (in *Injector) Held() int { return len(in.pending) }

// AbortsAttempt decides whether t's current completion attempt aborts. It
// does not mutate state; call RecordAbort to commit the abort.
func (in *Injector) AbortsAttempt(t *txn.Transaction) bool {
	if in.plan.AbortProb == 0 || in.attempts[t.ID] >= in.plan.MaxRestarts {
		return false
	}
	return in.plan.abortDraw(t.ID, in.attempts[t.ID]) < in.plan.AbortProb
}

// RecordAbort commits an abort of t at time now: the attempt count rises and
// t is held until its backoff expires. It returns the restart instant.
func (in *Injector) RecordAbort(now float64, t *txn.Transaction) float64 {
	in.attempts[t.ID]++
	in.aborts++
	at := now + in.plan.Backoff(in.attempts[t.ID])
	in.hold(at, t)
	return at
}

// RecordCrashLoss commits a crash loss of t: in-flight work is gone but no
// backoff applies — the transaction re-queues immediately (it cannot run
// before the window ends anyway). Crash losses do not consume restart
// attempts: they are the backend's fault, not the transaction's.
func (in *Injector) RecordCrashLoss(t *txn.Transaction) {
	in.aborts++
}

// hold inserts t into the pending queue, keeping (at, id) order so restart
// delivery is deterministic even when backoffs coincide.
func (in *Injector) hold(at float64, t *txn.Transaction) {
	//lint:ignore hotpath-alloc holds happen only on aborts (rare by construction) and the sort.Search closure does not escape
	i := sort.Search(len(in.pending), func(i int) bool {
		if in.pending[i].at != at {
			return in.pending[i].at > at
		}
		return in.pending[i].t.ID > t.ID
	})
	//lint:ignore hotpath-alloc pending grows only while aborted transactions back off, bounded by the restart budget
	in.pending = append(in.pending, held{})
	copy(in.pending[i+1:], in.pending[i:])
	in.pending[i] = held{at: at, t: t}
}

// NextRestart returns the earliest pending restart instant, or +Inf.
func (in *Injector) NextRestart() float64 {
	if len(in.pending) == 0 {
		return math.Inf(1)
	}
	return in.pending[0].at
}

// PopDueRestarts removes and returns the transactions whose backoff expired
// by now, in (restart time, ID) order. The result is the injector's own
// buffer, valid until the next PopDueRestarts.
func (in *Injector) PopDueRestarts(now float64) []*txn.Transaction {
	k := 0
	for k < len(in.pending) && in.pending[k].at <= now {
		k++
	}
	if k == 0 {
		return nil
	}
	out := in.due[:0]
	for _, h := range in.pending[:k] {
		out = append(out, h.t)
	}
	in.due = out
	in.pending = in.pending[:copy(in.pending, in.pending[k:])]
	in.restarts += k
	return out
}

// DrainHeld removes and returns every transaction waiting out a backoff, in
// (restart time, ID) order, without counting them as restarts. This is the
// instance-wide loss seam of the cluster tier: a single-backend crash window
// destroys only in-flight work (queued and backing-off transactions keep
// their place), but when a whole *instance* crashes its backoff queue dies
// with it — the cluster router drains it here and fails the transactions
// over to surviving instances instead of restarting them in place.
func (in *Injector) DrainHeld() []*txn.Transaction {
	if len(in.pending) == 0 {
		return nil
	}
	out := make([]*txn.Transaction, len(in.pending))
	for i := range in.pending {
		out[i] = in.pending[i].t
	}
	in.pending = in.pending[:0]
	return out
}

// advanceStallIdx moves the window cursor past windows fully behind now.
func (in *Injector) advanceStallIdx(now float64) {
	for in.stallIdx < len(in.plan.Stalls) && in.plan.Stalls[in.stallIdx].End() <= now {
		in.stallIdx++
	}
}

// InStall reports whether the backend is inside an outage window at now,
// returning the window and its index (for once-per-window bookkeeping on the
// caller's side) when so.
func (in *Injector) InStall(now float64) (Window, int, bool) {
	in.advanceStallIdx(now)
	if in.stallIdx < len(in.plan.Stalls) {
		w := in.plan.Stalls[in.stallIdx]
		if w.Start <= now && now < w.End() {
			return w, in.stallIdx, true
		}
	}
	return Window{}, -1, false
}

// NextStallStart returns the start of the first outage window strictly after
// now, or +Inf.
func (in *Injector) NextStallStart(now float64) float64 {
	in.advanceStallIdx(now)
	for i := in.stallIdx; i < len(in.plan.Stalls); i++ {
		if in.plan.Stalls[i].Start > now {
			return in.plan.Stalls[i].Start
		}
	}
	return math.Inf(1)
}

// RecordStallEntered counts an outage window the run actually hit.
func (in *Injector) RecordStallEntered() { in.stalls++ }
