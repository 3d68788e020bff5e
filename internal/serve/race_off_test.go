//go:build !race

package serve

// raceEnabled reports that the race detector instruments this build.
const raceEnabled = false
