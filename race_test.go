//go:build race

package crn

// raceEnabled reports that the race detector is on: sync.Pool then drops
// Puts at random, so allocation pins over pooled memory do not hold.
const raceEnabled = true
