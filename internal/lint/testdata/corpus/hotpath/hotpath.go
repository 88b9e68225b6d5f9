// Package hotpath seeds the hotpath-alloc corpus: Run is the annotated
// root, helpers are reached statically and through interface dispatch, and
// finish is pruned with //lint:coldpath. Lines marked want must be flagged;
// everything else must stay silent.
package hotpath

import "fmt"

// step is the dispatch surface: implementations must be reached through the
// call graph's interface fan-out, not just static calls.
type step interface {
	apply(x int) int
}

// Run is the decision loop under test.
//
//lint:hotpath
func Run(ss []step, names []string, buf []int, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		for _, s := range ss {
			total = s.apply(total)
		}
	}
	total += work(names, buf, total)
	report(total)
	_ = suppressed(total)
	guard(total)
	finish(total)
	return total
}

type point struct{ x int }

// boxer reaches the hot path only through interface dispatch on step.
type boxer struct{ scale int }

func (b boxer) apply(x int) int {
	vals := []int{x, b.scale} // want hotpath-alloc
	m := map[int]int{x: 1}    // want hotpath-alloc
	p := &point{x: x}         // want hotpath-alloc
	return vals[0] + m[x] + p.x
}

// shifter is the allocation-free implementation; it must produce nothing.
type shifter struct{ by int }

func (s shifter) apply(x int) int { return x + s.by }

// work is reached statically and seeds the remaining idioms.
func work(names []string, buf []int, x int) int {
	joined := ""
	for _, n := range names {
		joined += n // want hotpath-alloc
	}
	b := []byte(joined)          // want hotpath-alloc
	f := func() int { return x } // want hotpath-alloc
	sink(x)                      // want hotpath-alloc
	var xs []int
	xs = append(xs, x)         // want hotpath-alloc
	ys := make([]int, 0, 8)    // want hotpath-alloc
	ys = append(ys, x)         // presized: only the make is flagged
	seen := make(map[int]bool) // want hotpath-alloc
	seen[x] = true
	zs := buf[:0]
	zs = append(zs, x) // the caller's reused buffer: no finding
	return len(b) + f() + len(xs) + len(ys) + len(seen) + len(zs)
}

// sink's any parameter is what forces the boxing at work's call site.
func sink(v any) { _ = v }

// report is reached statically from Run.
func report(total int) {
	msg := fmt.Sprintf("total=%d", total) // want hotpath-alloc
	_ = msg
}

// suppressed shows a justified suppression: flagged code, silenced with a
// reasoned directive, asserted silent by the absence of a want marker.
func suppressed(x int) string {
	//lint:ignore hotpath-alloc error-path formatting, runs at most once per run
	s := fmt.Sprintf("x=%d", x)
	return s
}

// guard shows the panic exemption: formatting a crash message is death-path
// work, not a hot-path cost, so the Sprintf below must stay silent.
func guard(total int) {
	if total < 0 {
		panic(fmt.Sprintf("hotpath: negative total %d", total))
	}
}

// finish is the end-of-run aggregation: reachability must stop here.
//
//lint:coldpath
func finish(total int) {
	fmt.Println("done", total)
}

// Unreachable is never called from the root; its allocations are off-path.
func Unreachable() string {
	return fmt.Sprintf("%d", 42)
}
