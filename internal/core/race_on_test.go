//go:build race

package core

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of what it is given back, so allocation counts that rely on
// recycled scratch do not hold.
const raceEnabled = true
