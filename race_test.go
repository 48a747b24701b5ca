//go:build race

package repro_test

// raceAllocAllowance is what the race detector's instrumentation adds to
// one full run's allocation count (measured 31–32; it varies by one).
const raceAllocAllowance = 40

// raceByteAllowance is what the race detector's instrumentation adds to the
// bytes one warm-arena run allocates (measured 176; two allocations).
const raceByteAllowance = 400
