//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// pooled allocation counts are only pinned when it does not.
const raceEnabled = true
