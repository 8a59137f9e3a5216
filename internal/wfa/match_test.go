package wfa

import (
	"bytes"
	"testing"
)

// byteMatchLen is the byte-at-a-time reference for matchLen.
func byteMatchLen(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestMatchLen compares matchLen with the byte loop for every start offset
// into a shared buffer (so words straddle every alignment), every length
// 0–17 on each side, and a mismatch at every position or none.
func TestMatchLen(t *testing.T) {
	base := []byte("ACGTTGCAACGTACGTGGTACCATTGACGTAC")
	for off := 0; off < 8; off++ {
		for la := 0; la <= 17; la++ {
			for lb := 0; lb <= 17; lb++ {
				for miss := -1; miss < min(la, lb); miss++ {
					a := base[off : off+la]
					b := bytes.Clone(base[off : off+lb])
					if miss >= 0 {
						b[miss] ^= 0x20
					}
					if got, want := matchLen(a, b), byteMatchLen(a, b); got != want {
						t.Fatalf("off %d, len %d/%d, mismatch at %d: matchLen = %d, byte loop %d", off, la, lb, miss, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkMatchLen measures the word-wide extender against the byte loop
// over a 1 kbp identical run, the shape of a near-identical pair's long
// match stretches.
func BenchmarkMatchLen(b *testing.B) {
	x := bytes.Repeat([]byte("ACGTTGCA"), 128)
	y := bytes.Clone(x)
	for _, impl := range []struct {
		name string
		fn   func(a, b []byte) int
	}{{"word", matchLen}, {"byte", byteMatchLen}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(len(x)))
			for i := 0; i < b.N; i++ {
				if impl.fn(x, y) != len(x) {
					b.Fatal("short match")
				}
			}
		})
	}
}
