//go:build !race

package crn

const raceEnabled = false
