//go:build race

package replica_test

// raceEnabled reports whether the race detector instruments this build;
// allocation counts are only pinned when it does not.
const raceEnabled = true
