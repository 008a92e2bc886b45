//go:build race

package cluster

// raceEnabled reports a build with the race detector on.
const raceEnabled = true
