//go:build race

package pool

// raceEnabled reports that the race detector is on; allocation pins, like
// the root package's, then skip.
const raceEnabled = true
