//go:build !race

package engine

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
