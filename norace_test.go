//go:build !race

package repro_test

const raceAllocAllowance = 0

const raceByteAllowance = 0
