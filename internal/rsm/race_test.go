//go:build race

package rsm_test

// raceAllocAllowance is what the race detector's instrumentation adds to a
// committed operation's allocation count (measured 0.74; 1.68–1.71 while a
// prepared follower's instance opened with a P1a).
const raceAllocAllowance = 1.8
