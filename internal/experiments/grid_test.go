package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// errInspected stops an experiment once its jobs have been inspected.
var errInspected = errors.New("jobs inspected")

// TestValidationReachesEveryGrid: under Options.Validate, every job of every
// grid experiment records its schedule and validates that recording in its
// Post hook. Each job's Post runs before any simulation, on a freshly
// generated set and the job's still-empty recorder, and must reject it.
func TestValidationReachesEveryGrid(t *testing.T) {
	defer func(orig func(int, []runner.Job) ([]*metrics.Summary, error)) { runJobs = orig }(runJobs)
	const seeds = 2
	for _, tc := range []struct {
		id   string
		jobs int // x-values × policies × seeds
	}{
		{"fig14", 10 * 2 * seeds},
		{"structural", 10 * 2 * seeds},
		{"dep-split", 10 * 2 * seeds},
		{"mserver", 4 * 3 * seeds},
		{"domino", 10 * 3 * seeds},
	} {
		t.Run(tc.id, func(t *testing.T) {
			var jobs []runner.Job
			runJobs = func(_ int, js []runner.Job) ([]*metrics.Summary, error) {
				jobs = js
				return nil, errInspected
			}
			_, err := Registry[tc.id](Options{N: 50, Seeds: DefaultSeeds[:seeds], Validate: true})
			if !errors.Is(err, errInspected) {
				t.Fatalf("%s did not submit its jobs to the grid: err = %v", tc.id, err)
			}
			if len(jobs) != tc.jobs {
				t.Fatalf("%s built %d jobs, want %d", tc.id, len(jobs), tc.jobs)
			}
			for i, job := range jobs {
				if job.Config.Recorder == nil || job.Post == nil {
					t.Fatalf("job %d (%s): recorder %v, post hook set %v", i, job.Label, job.Config.Recorder, job.Post != nil)
				}
				set, err := job.Gen(0)
				if err != nil {
					t.Fatal(err)
				}
				if err := job.Post(set, &metrics.Summary{}); err == nil || !strings.Contains(err.Error(), "never finished") {
					t.Fatalf("job %d (%s): Post on an empty recording returned %v, want a validation error", i, job.Label, err)
				}
			}
		})
	}
}
