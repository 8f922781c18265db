//go:build !race

package ans

const raceEnabled = false
