package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/slo"
)

// gatedClock is a RealClock whose first pacing point waits until a reader
// has seen the fleet mid-run (seen closes), or until timeout passes, which
// it records. Without the gate a replay at a 10 µs scale can finish before
// any reader goroutine is scheduled. The gate sits in Now, not Sleep: the
// run reads Now once to anchor its start, before the fleet is built, and
// then at every pacing point with the status board unlocked, but a replay
// that runs behind its schedule never sleeps.
type gatedClock struct {
	executor.RealClock
	seen     <-chan struct{}
	timeout  time.Duration
	reads    atomic.Int64
	timedOut atomic.Bool
}

// Now implements executor.Clock.
func (c *gatedClock) Now() time.Time {
	if c.reads.Add(1) == 2 {
		select {
		case <-c.seen:
		case <-time.After(c.timeout):
			c.timedOut.Store(true)
		}
	}
	return c.RealClock.Now()
}

// TestConcurrentStatusHammer drives a RealClock fleet replay while several
// goroutines read Status and Health — the fleet's concurrency contract: the
// reads build their copies from the engine itself under the board's lock,
// which the run releases only while it paces. Primarily a -race target; the
// replay finishes in well under a second without the detector. Its first
// pacing sleep waits for a mid-run read, so the hammer is never vacuous
// under CPU load.
func TestConcurrentStatusHammer(t *testing.T) {
	cfg := clusterConfig(nil)
	cfg.SLO = &slo.Config{Spec: slo.DefaultSpec(), Window: 50}
	set := clusterWorkload()
	seen := make(chan struct{})
	var seenOnce sync.Once
	clock := &gatedClock{seen: seen, timeout: 10 * time.Second}
	fleet := NewFleet(cfg, set, FleetOptions{TimeScale: 10 * time.Microsecond, Clock: clock})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type outcome struct {
		res *Result
		err error
	}
	runDone := make(chan outcome, 1)
	go func() {
		res, err := fleet.Run(ctx)
		runDone <- outcome{res, err}
	}()

	var wg sync.WaitGroup
	var midRun atomic.Int64
	stop := make(chan struct{})
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				fs := fleet.Status()
				if fs.Now < last {
					t.Errorf("status went back from %v to %v", last, fs.Now)
					return
				}
				last = fs.Now
				if fs.Instances != nil && !fs.Done {
					midRun.Add(1)
					seenOnce.Do(func() { close(seen) })
				}
				completed := 0
				for _, is := range fs.Instances {
					completed += is.Completed
				}
				if completed != fs.Completed || fs.Completed+fs.Shed+fs.Lost > set.Len() {
					t.Errorf("status %+v: instances complete %d", fs, completed)
					return
				}
				fh := fleet.Health()
				if fh.Enabled && (len(fh.Instances) != cfg.Instances || fh.Resolves > fh.Fires) {
					t.Errorf("health %+v", fh)
					return
				}
			}
		}()
	}

	out := <-runDone
	close(stop)
	wg.Wait()
	if out.err != nil {
		t.Fatal(out.err)
	}
	if clock.timedOut.Load() {
		t.Fatalf("no reader saw the fleet mid-run within %v of its first pacing sleep", clock.timeout)
	}
	if midRun.Load() == 0 {
		t.Fatal("no read saw the fleet mid-run: the hammer is vacuous")
	}
	fs := fleet.Status()
	if !fs.Done || fs.Completed != out.res.Summary.N || fs.Lost != out.res.Lost {
		t.Fatalf("final status %+v inconsistent with result %+v", fs, out.res)
	}
	if fh := fleet.Health(); !fh.Enabled || !fh.Done || len(fh.Instances) != cfg.Instances {
		t.Fatalf("final health %+v", fh)
	}
}
