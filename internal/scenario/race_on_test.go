//go:build race

package scenario

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of what it is given back, so allocation counts that rely on
// recycled generators do not hold.
const raceEnabled = true
