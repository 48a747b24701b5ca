//go:build !race

package rsm_test

const raceAllocAllowance = 0
