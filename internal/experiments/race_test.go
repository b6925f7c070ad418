//go:build race

package experiments

// raceEnabled reports that the race detector is on; the orderings test then
// skips, because building its environment takes minutes under it.
const raceEnabled = true
