//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so steady-state allocation guards cannot hold; the oracle
// matrices are thinned there too.
const raceEnabled = true
