package workload

import (
	"runtime"
	"testing"
)

// TestBuildBytes pins the bytes one unkeyed build allocates per
// transaction: Table-I generation carves the records from one slab, and an
// independent set holds neither key storage nor a reverse-edge table.
// Measured 105 B/txn; key-set fields on every record and an always-built
// reverse-edge table read 187.
func TestBuildBytes(t *testing.T) {
	const n, budget = 2_500, 125.0
	spec := Default(0.95, 1).WithN(n)
	MustGenerate(spec) // warm-up
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MustGenerate(spec)
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f bytes per transaction", got)
	if got > budget {
		t.Errorf("Build allocated %.1f bytes per transaction, want <= %v", got, budget)
	}
}
