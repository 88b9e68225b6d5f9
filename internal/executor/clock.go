package executor

import (
	"context"
	"sync/atomic"
	"time"
)

// Clock is the executor's only window onto wall time: Now anchors the
// replay and Sleep paces it. The seam exists for determinism — with the
// default RealClock the executor replays a workload in scaled real time,
// while a FakeClock replays the identical schedule instantly and
// bit-for-bit reproducibly, because no host-clock read ever reaches the
// scheduling logic (the nondeterminism analyzer in internal/lint enforces
// the same property statically for the simulator packages).
type Clock interface {
	// Now returns the current time according to this clock.
	Now() time.Time
	// Sleep waits for d to elapse on this clock or for ctx to end,
	// returning ctx.Err() in the latter case. d is always positive.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock is the production Clock: time.Now and timer-based sleeps.
type RealClock struct{}

// Now implements Clock.
//
//lint:ignore nondeterminism RealClock IS the sanctioned wall-clock seam; everything else injects Clock
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	//lint:ignore nondeterminism RealClock IS the sanctioned wall-clock seam; everything else injects Clock
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// Waits reports whether c really waits in Sleep: false only for a
// *FakeClock, whose Sleep returns at once. A live driver hands its staged
// events to the sinks before each pacing sleep only under a clock that
// waits, so readers see every decision up to the instant it pauses; an
// instant replay never pauses, and delivers in full batches as sim.Run
// does.
func Waits(c Clock) bool {
	_, instant := c.(*FakeClock)
	return !instant
}

// FakeClock is a deterministic Clock for tests: Sleep advances the clock's
// notion of now instantly instead of waiting, so a paced replay runs at
// full speed yet observes exactly the same sequence of instants on every
// run. The zero value starts at the zero time; that is fine, because the
// executor only ever uses differences from its start anchor.
//
// FakeClock is safe for concurrent use (the executor goroutine sleeps while
// test goroutines may read Now): its time is the start anchor plus an
// atomic offset, so neither call takes a lock.
type FakeClock struct {
	start time.Time    // immutable after construction
	off   atomic.Int64 // nanoseconds slept since start
}

// NewFakeClock returns a FakeClock anchored at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{start: start}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time { return c.start.Add(time.Duration(c.off.Load())) }

// Sleep implements Clock: it advances the fake time by d without waiting.
// Cancellation is still honoured so tests can interrupt a replay.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.off.Add(int64(d))
	return nil
}
