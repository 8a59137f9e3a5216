package wfa

import (
	"encoding/binary"
	"math/bits"
)

// matchLen returns the length of the longest common prefix of a and b — the
// match run a wavefront offset extends over. It compares eight bytes per
// step: the first set bit of the XOR of two little-endian words marks the
// first mismatching byte. A byte loop finishes the tail.
func matchLen(a, b []byte) int {
	b = b[:min(len(a), len(b))]
	a = a[:len(b)]
	n := 0
	for len(b) >= 8 {
		if x := binary.LittleEndian.Uint64(a) ^ binary.LittleEndian.Uint64(b); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
		a, b = a[8:], b[8:]
		n += 8
	}
	for i := range b {
		if a[i] != b[i] {
			return n + i
		}
	}
	return n + len(b)
}
