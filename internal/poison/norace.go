//go:build !race

package poison

// Enabled reports a race-detector build; see race.go.
const Enabled = false
