package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/workload"
)

// The pinned digests below are sha256 sums of whole /metrics pages. They
// guard the exposition's byte identity — metric names, label escaping,
// HELP/TYPE headers, sort order and float formatting — against refactors of
// the registry and the sketch storage behind it. A change that is meant to
// alter the exposition must say why when it re-pins them.
const (
	goldenReplayDigest = "299d575e78b09ef2a99e8a81f1965639d21445f568baa68bc8877d4cd3ecdd10"
	goldenMergeDigest  = "a288dd275b082c1577b39ce6b2d2eb22336e2336dc30a2de437c67b13d8263fb"
)

// promDigest renders reg and returns the sha256 of its exposition bytes.
func promDigest(t *testing.T, reg *obs.Registry) (string, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.String()
}

// TestGoldenReplayMetricsDigest replays a fixed-seed weighted workflow
// workload on the executor (FakeClock) with the live dashboard's wiring —
// event ring, span builder with 100-unit windows and Keep 1024, default SLO
// — and pins the digest of the resulting /metrics page.
func TestGoldenReplayMetricsDigest(t *testing.T) {
	set, err := workload.NewSpec(0.8, 11).WithWeights().WithWorkflows(5, 1).WithN(2000).Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ring := obs.NewRing(1024)
	spans := obs.NewSpanBuilder(set, obs.SpanOptions{Metrics: reg, Window: 100, Keep: 1024})
	ex := executor.New(core.New(), set, executor.Options{
		Clock:   executor.NewFakeClock(time.Unix(0, 0)),
		Sink:    obs.Tee(ring, spans),
		Metrics: reg,
		SLO:     &slo.Config{Spec: slo.DefaultSpec(), Window: 100},
	})
	if _, err := ex.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, page := promDigest(t, reg)
	if n := strings.Count(page, "\nasets_window_tardiness{"); n < 100 {
		t.Fatalf("replay exported only %d windowed tardiness samples", n)
	}
	if got != goldenReplayDigest {
		t.Errorf("replay /metrics digest %s, pinned %s", got, goldenReplayDigest)
	}
}

// TestGoldenMergedMetricsDigest pins the digest of four pool jobs' own
// /metrics pages, joined in job order: per-job span builders with windowed
// sketches over sim runs, gathered by two workers.
func TestGoldenMergedMetricsDigest(t *testing.T) {
	var jobs []Job
	for i, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return core.New() }, sched.NewEDF,
		func() sched.Scheduler { return core.New() }, sched.NewEDF,
	} {
		cfg := workload.Default(0.9, uint64(21+i/2)).WithWorkflows(4, 1).WithWeights()
		cfg.N = 400
		set := workload.MustGenerate(cfg)
		reg := obs.NewRegistry()
		sb := obs.NewSpanBuilder(set, obs.SpanOptions{Metrics: reg, Window: 20})
		jobs = append(jobs, Job{Gen: cloneGen(set), New: mk, Config: sim.Config{Sink: sb, Metrics: reg}})
	}
	if _, err := (Pool{Workers: 2}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	var pages bytes.Buffer
	for i := range jobs {
		if err := obs.WritePrometheus(&pages, jobs[i].Config.Metrics); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(pages.Bytes())
	got := hex.EncodeToString(sum[:])
	if !strings.Contains(pages.String(), `asets_window_slowdown{window="`) {
		t.Fatalf("job pages lack windowed sketches:\n%.2000s", pages.String())
	}
	if got != goldenMergeDigest {
		t.Errorf("job-order /metrics digest %s, pinned %s", got, goldenMergeDigest)
	}
}
