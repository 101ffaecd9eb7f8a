//go:build race

package bitset

// raceEnabled reports a -race build, whose instrumentation turns the
// append(s, make(...)...) idiom back into two allocations.
const raceEnabled = true
