package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/cliflag"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestReinitMatchesFresh pins the Init contract of sched.Scheduler: a
// policy may be initialized again, and each Init starts it exactly as a
// freshly constructed one would. Every policy runs one set, is abandoned
// mid-run on it as a crash abandons an instance's scheduler, then runs a
// second set (Sim.Run calls Init each time); the second run's event stream
// and finish times must be byte-identical to a fresh instance's on that
// set. The first set is the larger, so the last Init reuses slabs holding
// stale state.
// Both sets are weighted workflows with read/write sets on two servers, so
// the ready tracker, the workflow entities, the checked-out flags and the
// conflict-aware tables all carry state from the first run.
func TestReinitMatchesFresh(t *testing.T) {
	type policy struct {
		name string
		new  func() sched.Scheduler
	}
	// cliflag's table already holds NewReady ("ready").
	var policies []policy
	for _, p := range cliflag.Policies {
		policies = append(policies, policy{p.Name, p.New})
	}
	policies = append(policies,
		policy{"aed", func() sched.Scheduler { return sched.NewAED(0xAED) }},
		policy{"asets-bal-time", func() sched.Scheduler { return core.New(core.WithTimeActivation(0.01)) }},
		policy{"asets-bal-count", func() sched.Scheduler { return core.New(core.WithCountActivation(0.05)) }},
		policy{"asets-head-excluded", func() sched.Scheduler { return core.New(core.WithHeadExcludedRep()) }},
		policy{"asets-checked", func() sched.Scheduler { return core.NewChecked(core.New()) }},
	)
	ks := contention.Keyspace{Keys: 64, Alpha: 0.9, Reads: 2, Writes: 1}
	build := func(n int, seed uint64) func() *txn.Set {
		spec := workload.Default(0.9*2, seed).WithN(n).WithWeights().WithWorkflows(4, 1).WithContention(ks)
		return spec.MustBuild
	}
	first, second := build(300, 1), build(200, 2)
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			reused := p.new()
			runDigests(t, first(), reused)
			abandon(first(), reused)
			stream, finish := runDigests(t, second(), reused)
			freshStream, freshFinish := runDigests(t, second(), p.new())
			if stream != freshStream {
				t.Errorf("event stream after a second Init differs from a fresh %s's", p.name)
			}
			if finish != freshFinish {
				t.Errorf("finish times after a second Init differ from a fresh %s's", p.name)
			}
		})
	}
}

// abandon initializes s over set, delivers every arrival and checks out a
// few transactions, leaving queued and checked-out state behind.
func abandon(set *txn.Set, s sched.Scheduler) {
	s.Init(set)
	now := 0.0
	for _, x := range set.Txns {
		now = x.Arrival
		s.OnArrival(now, x)
	}
	for range 3 {
		s.Next(now)
	}
}

// runDigests runs set under s on two servers and returns digests of the event
// stream and of every transaction's finish state.
func runDigests(t *testing.T, set *txn.Set, s sched.Scheduler) (stream, finish [32]byte) {
	t.Helper()
	col := &obs.Collector{}
	if _, err := sim.New(sim.Config{Servers: 2, Sink: col}).Run(set, s); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, ev := range col.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	stream = sha256.Sum256(buf.Bytes())
	buf.Reset()
	for _, x := range set.Txns {
		buf.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x.FinishTime)))
		buf.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x.Remaining)))
		fmt.Fprint(&buf, x.Started, x.Finished, x.Shed)
	}
	return stream, sha256.Sum256(buf.Bytes())
}
