//go:build !race

package compressor

const raceEnabled = false
