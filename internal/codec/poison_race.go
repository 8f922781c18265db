//go:build race

package codec

import (
	"bytes"
	"math"
)

// Under the race detector a recycled buffer is poisoned on its way back to
// the pool, so a value read after its buffer was returned is a NaN or a
// 0xA5 byte, and a read racing the return is a reported data race, instead
// of a stale value that happens to look right.

func poisonValues(b *[]float64) {
	v := (*b)[:cap(*b)]
	for i := range v {
		v[i] = math.NaN()
	}
}

func poisonPayload(pb *bytes.Buffer) {
	p := pb.Bytes()
	p = p[:cap(p)]
	for i := range p {
		p[i] = 0xA5
	}
}
