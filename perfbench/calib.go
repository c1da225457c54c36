package main

import "time"

// The host-clock metrics are scaled by the machine's current speed. On a
// shared machine the speed of one process drifts by a third within an
// hour (neighbours contend for caches, memory bandwidth and SMT
// siblings), which would swamp any change to the stack. The benchmark
// therefore times a fixed kernel right after each measured window and
// each set-up build, and reports host times as they would read on a
// machine where the kernel takes calibRef. The kernel is the benchmark's
// own code, so no change to the stack can move it, and it allocates
// nothing, so it leaves the loop's allocation counts and the collector's
// pacing alone.
const (
	calibRef   = 8 * time.Millisecond
	calibIters = 20000
	calibKeys  = 1 << 16
)

var (
	calibBuf  = make([]byte, 256)
	calibMap  = make(map[uint64]uint64, calibKeys)
	calibSink uint64
)

// slowdown runs the kernel and returns its wall time over calibRef: how
// much slower than the reference the machine runs right now. The kernel
// mixes byte hashing with updates of a map of about two megabytes, the kind
// of work the stack's host time is made of.
func slowdown() float64 {
	t0 := time.Now()
	h := uint64(14695981039346656037)
	for i := 0; i < calibIters; i++ {
		for _, b := range calibBuf {
			h = (h ^ uint64(b)) * 1099511628211
		}
		calibBuf[i%len(calibBuf)] = byte(h)
		calibMap[h%calibKeys] += h
	}
	calibSink += h
	return time.Since(t0).Seconds() / calibRef.Seconds()
}
