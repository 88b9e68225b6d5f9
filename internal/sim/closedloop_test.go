package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/workload"
)

// tinySessions builds one user with two single-transaction pages.
func tinySessions(t *testing.T) (*txn.Set, []txn.Session) {
	t.Helper()
	a := &txn.Transaction{ID: 0, Arrival: 0, Deadline: 10, Length: 4, Weight: 1}
	b := &txn.Transaction{ID: 1, Arrival: 0, Deadline: 6, Length: 2, Weight: 1}
	set, err := txn.NewSet([]*txn.Transaction{a, b})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []txn.Session{{
		Pages:      [][]txn.ID{{0}, {1}},
		ThinkTimes: []float64{1, 3},
	}}
	return set, sessions
}

func TestClosedLoopTiming(t *testing.T) {
	set, sessions := tinySessions(t)
	res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, sched.NewFCFS())
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 requested at t=1, runs 1-5 (latency 4); think 3 -> page 1 at
	// t=8, runs 8-10 (latency 2).
	if got := res.PageLatencies[0][0]; got != 4 {
		t.Fatalf("page 0 latency %v, want 4", got)
	}
	if got := res.PageLatencies[0][1]; got != 2 {
		t.Fatalf("page 1 latency %v, want 2", got)
	}
	if res.Summary.AvgTardiness != 0 {
		t.Fatalf("tardiness %v, want 0 (deadlines 10 and 6 relative)", res.Summary.AvgTardiness)
	}
	if res.AbandonRate != 0 {
		t.Fatalf("abandon rate %v", res.AbandonRate)
	}
}

func TestClosedLoopRelativeDeadlines(t *testing.T) {
	// Page 1's relative deadline of 1 < its length 2: always tardy by 1.
	a := &txn.Transaction{ID: 0, Arrival: 0, Deadline: 10, Length: 4, Weight: 1}
	b := &txn.Transaction{ID: 1, Arrival: 0, Deadline: 1, Length: 2, Weight: 1}
	set, err := txn.NewSet([]*txn.Transaction{a, b})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []txn.Session{{Pages: [][]txn.ID{{0}, {1}}, ThinkTimes: []float64{0, 0}}}
	res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, sched.NewFCFS())
	if err != nil {
		t.Fatal(err)
	}
	// b requested at 4 (page 0 done) + think 0, finishes at 6, absolute
	// deadline 4+1=5 => tardy 1.
	if got := res.Summary.AvgTardiness; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("avg tardiness %v, want 0.5 (one of two tardy by 1)", got)
	}
	// The deferred restore puts the relative deadline back.
	if set.ByID(1).Deadline != 1 || set.ByID(1).Arrival != 0 {
		t.Fatalf("relative fields not restored: %+v", set.ByID(1))
	}
}

func TestClosedLoopAbandonment(t *testing.T) {
	set, sessions := tinySessions(t)
	res, err := New(Config{Patience: 3}).RunClosedLoop(set, sessions, sched.NewFCFS()) // patience 3
	if err != nil {
		t.Fatal(err)
	}
	// Latencies 4 and 2: one of two pages abandoned.
	if res.AbandonRate != 0.5 {
		t.Fatalf("abandon rate %v, want 0.5", res.AbandonRate)
	}
}

func TestClosedLoopValidation(t *testing.T) {
	set, sessions := tinySessions(t)
	bad := []txn.Session{{Pages: [][]txn.ID{{0}}, ThinkTimes: []float64{1}}} // misses txn 1
	if _, err := New(Config{Patience: 0}).RunClosedLoop(set, bad, sched.NewFCFS()); err == nil || !strings.Contains(err.Error(), "cover") {
		t.Fatalf("err = %v", err)
	}
	dup := []txn.Session{{Pages: [][]txn.ID{{0}, {0, 1}}, ThinkTimes: []float64{1, 1}}}
	if _, err := New(Config{Patience: 0}).RunClosedLoop(set, dup, sched.NewFCFS()); err == nil || !strings.Contains(err.Error(), "two pages") {
		t.Fatalf("err = %v", err)
	}
	short := []txn.Session{{Pages: [][]txn.ID{{0}, {1}}, ThinkTimes: []float64{1}}}
	if _, err := New(Config{Patience: 0}).RunClosedLoop(set, short, sched.NewFCFS()); err == nil || !strings.Contains(err.Error(), "think times") {
		t.Fatalf("err = %v", err)
	}
	negative := []txn.Session{{Pages: [][]txn.ID{{0}, {1}}, ThinkTimes: []float64{1, -1}}}
	if _, err := New(Config{Patience: 0}).RunClosedLoop(set, negative, sched.NewFCFS()); err == nil || !strings.Contains(err.Error(), "negative think time") {
		t.Fatalf("err = %v", err)
	}
	_ = sessions
}

func TestClosedLoopGeneratedWorkload(t *testing.T) {
	cfg := workload.DefaultSessions(8, 0.9, 5)
	set, sessions, err := workload.GenerateSessions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []sched.Scheduler{sched.NewEDF(), sched.NewSRPT(), core.New()} {
		res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, policy)
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		if res.Summary.N != set.Len() {
			t.Fatalf("%s: %d of %d complete", policy.Name(), res.Summary.N, set.Len())
		}
		// Every page latency is at least its total service demand.
		for si, sess := range sessions {
			for pi, page := range sess.Pages {
				var work float64
				for _, id := range page {
					work += set.ByID(id).Length
				}
				if res.PageLatencies[si][pi] < work-1e-6 {
					t.Fatalf("%s: session %d page %d latency %v below work %v",
						policy.Name(), si, pi, res.PageLatencies[si][pi], work)
				}
			}
		}
	}
}

func TestClosedLoopReplayDeterministic(t *testing.T) {
	cfg := workload.DefaultSessions(5, 0.8, 9)
	set, sessions, err := workload.GenerateSessions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, core.New())
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.AvgTardiness
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("closed-loop replay diverged: %v vs %v", a, b)
	}
}

func TestClosedLoopMoreUsersMoreLoad(t *testing.T) {
	tard := func(users int) float64 {
		cfg := workload.DefaultSessions(users, 0.9, 11)
		cfg.MeanThink = 50 // fixed think: load scales with users
		set, sessions, err := workload.GenerateSessions(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(Config{Patience: 0}).RunClosedLoop(set, sessions, core.New())
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.AvgTardiness
	}
	if few, many := tard(3), tard(30); many <= few {
		t.Fatalf("30 users (%v) should be tardier than 3 (%v)", many, few)
	}
}

// closedLoopDigest hashes a closed-loop run's page latencies and every
// transaction's finish time, bit for bit.
func closedLoopDigest(set *txn.Set, res *ClosedLoopResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, sess := range res.PageLatencies {
		for _, lat := range sess {
			put(lat)
		}
	}
	for _, t := range set.Txns {
		put(t.FinishTime)
	}
	return h.Sum64()
}

// closedLoopGoldens pins the closed-loop schedule (page latencies and
// finish times) of DefaultSessions(40, 0.9, seed) under ASETS* and SRPT.
var closedLoopGoldens = map[string]uint64{
	"ASETS*/7": 0x63543846e78a1676,
	"ASETS*/8": 0xd893f46711e07fcb,
	"SRPT/7":   0x07c9a168a5972dde,
	"SRPT/8":   0xb1bbed3193f1c5d2,
}

func TestClosedLoopGoldenSchedules(t *testing.T) {
	for _, seed := range []uint64{7, 8} {
		set, sessions, err := workload.GenerateSessions(workload.DefaultSessions(40, 0.9, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []sched.Scheduler{core.New(), sched.NewSRPT()} {
			res, err := New(Config{}).RunClosedLoop(set, sessions, policy)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", policy.Name(), seed)
			if got := closedLoopDigest(set, res); got != closedLoopGoldens[key] {
				t.Errorf("%s: closed-loop digest %#x, golden %#x", key, got, closedLoopGoldens[key])
			}
		}
	}
}

// TestClosedLoopBusyTimeCountsPreemptedSlices: the server is busy exactly
// while it executes, so BusyTime is the total work even when transactions
// are preempted mid-run — the time served before each preemption counts.
func TestClosedLoopBusyTimeCountsPreemptedSlices(t *testing.T) {
	// Two users under SRPT: a page of length 10 requested at 0, and one of
	// length 2 requested at 3, which preempts it. The server never idles.
	a := &txn.Transaction{ID: 0, Deadline: 100, Length: 10, Weight: 1}
	b := &txn.Transaction{ID: 1, Deadline: 100, Length: 2, Weight: 1}
	set, err := txn.NewSet([]*txn.Transaction{a, b})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []txn.Session{
		{Pages: [][]txn.ID{{0}}, ThinkTimes: []float64{0}},
		{Pages: [][]txn.ID{{1}}, ThinkTimes: []float64{3}},
	}
	res, err := New(Config{}).RunClosedLoop(set, sessions, sched.NewSRPT())
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Summary; s.BusyTime != 12 || s.Utilization != 1 {
		t.Fatalf("BusyTime %v, Utilization %v; want 12 and 1", s.BusyTime, s.Utilization)
	}

	set, sessions, err = workload.GenerateSessions(workload.DefaultSessions(40, 0.9, 7))
	if err != nil {
		t.Fatal(err)
	}
	var work float64
	for _, tx := range set.Txns {
		work += tx.Length
	}
	col := &obs.Collector{}
	res, err = New(Config{Sink: col}).RunClosedLoop(set, sessions, core.New())
	if err != nil {
		t.Fatal(err)
	}
	preempts := 0
	for _, ev := range col.Events() {
		if ev.Kind == obs.KindPreempt {
			preempts++
		}
	}
	if preempts == 0 {
		t.Fatal("workload never preempted")
	}
	if busy := res.Summary.BusyTime; math.Abs(busy-work) > 1e-9*work {
		t.Fatalf("BusyTime %v, total work %v", busy, work)
	}
}
