package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/workload"
)

// scheduleDigest hashes a schedule's exact slice sequence. Any change to a
// policy's decisions, the simulator's event ordering, or the workload
// generator's stream consumption changes the digest.
func scheduleDigest(rec *trace.Recorder) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, s := range rec.Slices {
		binary.LittleEndian.PutUint64(buf[:], uint64(s.ID))
		h.Write(buf[:])
		put(s.Start)
		put(s.End)
	}
	return h.Sum64()
}

// goldenDigests pins the exact schedules of a fixed workload under each
// policy. These values are a regression tripwire, not a specification: when
// a deliberate behaviour change lands (e.g. a tie-break fix), rerun with
// -run TestGoldenSchedules -v and update the constants alongside a note in
// the commit explaining why the schedule legitimately moved.
var goldenDigests = map[string]uint64{
	"FCFS":   0x0273ffc0cb1ed5fd,
	"EDF":    0x4db3ab99c3314aa5,
	"SRPT":   0xcf2710d87c6b811d,
	"LS":     0x31ff1aa4a1ad64ce,
	"HDF":    0x4633300c79289b61,
	"ASETS*": 0x151ed3fde4232f1a,
	"Ready":  0x17569cb8c5432287,
}

func TestGoldenSchedules(t *testing.T) {
	cfg := workload.Default(0.85, 0xA5E75).WithWorkflows(4, 1).WithWeights()
	cfg.N = 200
	policies := []sched.Scheduler{
		sched.NewFCFS(),
		sched.NewEDF(),
		sched.NewSRPT(),
		sched.NewLS(),
		sched.NewHDF(),
		core.New(),
		core.NewReady(),
	}
	for _, p := range policies {
		set := workload.MustGenerate(cfg)
		rec := &trace.Recorder{}
		if _, err := New(Config{Recorder: rec}).Run(set, p); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got := scheduleDigest(rec)
		want, ok := goldenDigests[p.Name()]
		if !ok {
			t.Fatalf("%s: no golden digest registered (got %#x)", p.Name(), got)
		}
		if got != want {
			t.Errorf("%s: schedule digest %#x, golden %#x — policy behaviour changed", p.Name(), got, want)
		}
	}
}

// TestDigestSensitivity guards the digest itself: permuting two slices or
// nudging a boundary must change the hash.
func TestDigestSensitivity(t *testing.T) {
	base := &trace.Recorder{Slices: []trace.Slice{{ID: 0, Start: 0, End: 1}, {ID: 1, Start: 1, End: 3}}}
	swapped := &trace.Recorder{Slices: []trace.Slice{{ID: 1, Start: 1, End: 3}, {ID: 0, Start: 0, End: 1}}}
	nudged := &trace.Recorder{Slices: []trace.Slice{{ID: 0, Start: 0, End: 1.0000001}, {ID: 1, Start: 1, End: 3}}}
	d := scheduleDigest(base)
	if d == scheduleDigest(swapped) {
		t.Fatal("digest insensitive to slice order")
	}
	if d == scheduleDigest(nudged) {
		t.Fatal("digest insensitive to boundary change")
	}
}

// sharedNodeDigests pins ASETS*'s schedules on workflows that share nodes:
// WithWorkflows(5, 3) lets a transaction belong to up to three dependency
// closures, so one completion updates several scheduling entities, and a
// head can be ready in one workflow before its siblings are. Each entry
// holds two FNV-64a digests: every transaction's finish-time bits, and the
// JSON event stream. Servers 2 exercises the check-out of a transaction
// shared by entities another server is drawing from.
var sharedNodeDigests = map[string][2]uint64{
	"ASETS*/S1":          {0xece6f9a91163a24c, 0x36d4025cf7eb6f8e},
	"ASETS*/S2":          {0x8e16750eb4a56315, 0x2bc90a10a6ca3a0d},
	"ASETS*-headexcl/S1": {0xc6f9cdcc3f9d2ddd, 0xb19e36c07cb786cb},
	"ASETS*-headexcl/S2": {0xa47104509940b5e7, 0xfcb6790111aafbad},
	"Ready/S1":           {0x604e27e8d1d7afc7, 0xc9e92bb8eea4fbef},
	"Ready/S2":           {0x15248cf948cd82a1, 0x34f8b04dc6b195a1},
	"ASETS*-count/S1":    {0x1afbe8f0ad32dbdd, 0xc440c6e929ed9126},
	"ASETS*-count/S2":    {0x8e16750eb4a56315, 0xdce0571af95fc2ca},
}

func TestGoldenSharedNodeSchedules(t *testing.T) {
	spec := workload.NewSpec(0.95, 0x5AED).WithN(400).WithWeights().WithWorkflows(5, 3)
	memberships := 0
	for _, wf := range txn.BuildWorkflows(spec.MustBuild()) {
		memberships += len(wf.Members)
	}
	if memberships <= spec.N {
		t.Fatalf("%d memberships over %d transactions: the fixture shares no node", memberships, spec.N)
	}
	for _, p := range []struct {
		name string
		new  func() sched.Scheduler
	}{
		{"ASETS*", func() sched.Scheduler { return core.New() }},
		{"ASETS*-headexcl", func() sched.Scheduler { return core.New(core.WithHeadExcludedRep()) }},
		{"Ready", func() sched.Scheduler { return core.NewReady() }},
		{"ASETS*-count", func() sched.Scheduler { return core.New(core.WithCountActivation(0.05)) }},
	} {
		for _, servers := range []int{1, 2} {
			name := fmt.Sprintf("%s/S%d", p.name, servers)
			set := spec.MustBuild()
			col := &obs.Collector{}
			if _, err := New(Config{Servers: servers, Sink: col}).Run(set, p.new()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			finishes, events := fnv.New64a(), fnv.New64a()
			var buf [8]byte
			for _, tx := range set.Txns {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tx.FinishTime))
				finishes.Write(buf[:])
			}
			for _, ev := range col.Events() {
				b, err := ev.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				events.Write(b)
			}
			got := [2]uint64{finishes.Sum64(), events.Sum64()}
			if want := sharedNodeDigests[name]; got != want {
				t.Errorf("%s: finish/event digests %#x, golden %#x — shared-node schedule changed", name, got, want)
			}
		}
	}
}
