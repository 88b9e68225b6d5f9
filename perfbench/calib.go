package main

import (
	"runtime"
	"sync"
	"time"
)

// calibRef is the calibration's time on the reference machine; it sets the
// scale of the reported timings only. They are reported at the reference
// machine's speed: scaled by the machine's slowdown, the calibration's time
// over calibRef, measured in the same run.
//
// On a machine shared with other tenants, the speed of its cores moves by a
// fifth or more over tens of seconds, in phases longer than a run, and the
// engines slow with it. The calibration calls no repository code, so a
// change to the repository cannot move it, but it slows with the machine.
// It runs on every core at once because the engines use more than one:
// the pool runs a job per core, and a single engine's collector runs beside
// it. On a 2-CPU VM, across ten seeds per workload, the quartile spread of
// the median rate went from 0.098 to 0.074 on table1-txn, 0.102 to 0.062 on
// fleet-failover, 0.057 to 0.040 on contention-sweep and stayed at 0.039 on
// live-replay once scaled. A calibration on one core scaled
// contention-sweep's spread up to 0.2.
const calibRef = 50 * time.Millisecond

// calibSize is the number of keys in each calibration heap.
const calibSize = 1 << 15

// slowdown runs the calibration on a collected heap and returns its time
// over calibRef: above 1 the machine is slower than the reference.
func slowdown() float64 {
	runtime.GC()
	procs := runtime.GOMAXPROCS(0)
	nodes := make([][]calibNode, procs)
	heaps := make([][]*calibNode, procs)
	for i := range nodes {
		nodes[i] = make([]calibNode, calibSize)
		heaps[i] = make([]*calibNode, 0, calibSize)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			calibrate(nodes[i], heaps[i])
		}(i)
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(calibRef)
}

// calibNode is one entry of a calibration heap.
type calibNode struct{ key float64 }

// calibrate is a fixed workload shaped like a scheduler's queue: a binary
// heap of pointers to len(nodes) keys under pop/push churn. It allocates
// nothing, so the collector's phase does not move it.
func calibrate(nodes []calibNode, h []*calibNode) {
	const ops = 300_000
	x := uint64(88172645463325252)
	rnd := func() float64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	push := func(n *calibNode) {
		h = append(h, n)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].key <= h[i].key {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() *calibNode {
		top, last := h[0], len(h)-1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < last && h[l].key < h[m].key {
				m = l
			}
			if r < last && h[r].key < h[m].key {
				m = r
			}
			if m == i {
				break
			}
			h[m], h[i] = h[i], h[m]
			i = m
		}
		return top
	}
	for i := range nodes {
		nodes[i].key = rnd()
		push(&nodes[i])
	}
	for i := 0; i < ops; i++ {
		n := pop()
		n.key += rnd()
		push(n)
	}
}
