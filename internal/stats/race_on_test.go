//go:build race

package stats

// raceEnabled: the race detector allocates on its own account, so the
// allocation guards cannot hold under it.
const raceEnabled = true
