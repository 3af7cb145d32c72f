//go:build !race

package replica_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
