//go:build race

package router

// raceEnabled: the race detector instruments allocation, so allocation
// guards cannot hold under it.
const raceEnabled = true
