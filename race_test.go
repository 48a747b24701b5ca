//go:build race

package repro_test

// raceAllocAllowance is what the race detector's instrumentation adds to
// one full run's allocation count (measured 31–32; it varies by one).
const raceAllocAllowance = 40
