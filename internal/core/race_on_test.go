//go:build race

package core

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of its Puts on purpose, so allocation counts are not the program's.
const raceEnabled = true
