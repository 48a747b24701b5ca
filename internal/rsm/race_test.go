//go:build race

package rsm_test

// raceAllocAllowance is what the race detector's instrumentation adds to a
// committed operation's allocation count (measured 1.68–1.71).
const raceAllocAllowance = 1.8
