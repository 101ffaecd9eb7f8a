//go:build !race

package bitset

const raceEnabled = false
