//go:build !race

package residual

const raceEnabled = false
