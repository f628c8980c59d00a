//go:build race

package engine

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a random share of Puts on purpose, so allocation
// bounds that rely on pooled state do not hold.
const raceEnabled = true
