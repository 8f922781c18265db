//go:build !race

package codec

import "bytes"

// Outside race builds returning a buffer to its pool touches nothing (see
// poison_race.go).

func poisonValues(*[]float64) {}

func poisonPayload(*bytes.Buffer) {}
