//go:build !race

package orchestrator

const raceEnabled = false
