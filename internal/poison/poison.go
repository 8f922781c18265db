// Package poison marks recycled buffers under the race detector. A pool
// calls it on each buffer returned to it, so a value read after its buffer
// was returned is a NaN or a 0xA5 byte, and a read racing the return is a
// reported data race, instead of a stale value that happens to look right.
// Outside race builds the calls touch nothing and inline away.
package poison

import "math"

// Floats fills v's whole capacity with NaN under the race detector.
func Floats(v []float64) {
	if Enabled {
		v = v[:cap(v)]
		for i := range v {
			v[i] = math.NaN()
		}
	}
}

// Bytes fills b's whole capacity with 0xA5 under the race detector.
func Bytes(b []byte) {
	if Enabled {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xA5
		}
	}
}
