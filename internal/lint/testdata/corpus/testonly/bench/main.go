// Command bench is a nested module built against tomod through its replace
// directive: everything it calls is a root, and nothing in it is reported.
package main

import "tomod/lib"

func main() { _ = lib.BenchOnly() }

func neverCalled() {}

func orderDependent(m map[int]int) (n int) {
	for k := range m {
		n = k
	}
	return n
}
