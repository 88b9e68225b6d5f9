package experiments

import (
	"reflect"
	"testing"
)

// TestParallelismInvisible is the harness-level determinism gate: every
// registered experiment must produce a bit-identical Result whether its
// cells run serially or across four workers. This is what lets CI run at
// GOMAXPROCS while a reviewer replays at -parallel 1 and diffs CSVs.
func TestParallelismInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments twice")
	}
	// A cross-section of the grid's callers: the figure sweep (fig14), a
	// per-x server count (mserver), a recorder-reading post hook (domino),
	// and the post-hook folds of structural and dep-split.
	for _, id := range []string{"fig14", "mserver", "domino", "structural", "dep-split"} {
		exp, ok := Registry[id]
		if !ok {
			t.Fatalf("experiment %q not in registry", id)
		}
		t.Run(id, func(t *testing.T) {
			opts := fastOpts()
			opts.Seeds = opts.Seeds[:2]
			opts.N = 200
			opts.Validate = false

			serialOpts := opts
			serialOpts.Parallelism = 1
			serial, err := exp(serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			parallelOpts := opts
			parallelOpts.Parallelism = 4
			parallel, err := exp(parallelOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("%s: parallel result differs from serial:\nserial   %+v\nparallel %+v",
					id, serial.Figure, parallel.Figure)
			}
		})
	}
}
