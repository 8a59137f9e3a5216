package kernel_test

import (
	"testing"

	"fastlsa/internal/kernel"
	"fastlsa/internal/memory"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
)

// BenchmarkForwardAffine measures the three-plane sweep in cells/second —
// the inner loop of every affine aligner in the repository.
func BenchmarkForwardAffine(b *testing.B) {
	const n = 1024
	x, y := testutil.RandomPair(n, n, seq.Protein, 8)
	pool := memory.NewRowPool()
	k := kernel.New(scoring.BLOSUM62, kernel.Affine(-11, -1), pool, nil)
	top := k.LeadEdge(n, 0)
	left := k.LeadEdge(n, 0)
	out := k.NewEdge(n)
	b.SetBytes(n * n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := k.Forward(x.Residues, y.Residues, top, left, out, kernel.Edge{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForwardLinear is the single-plane counterpart, pinning that the
// unified kernel keeps the linear fast path allocation-free once edges are
// pooled.
func BenchmarkForwardLinear(b *testing.B) {
	const n = 1024
	x, y := testutil.RandomPair(n, n, seq.DNA, 8)
	pool := memory.NewRowPool()
	k := kernel.New(scoring.DNASimple, kernel.Linear(-4), pool, nil)
	top := k.LeadEdge(n, 0)
	left := k.LeadEdge(n, 0)
	out := k.NewEdge(n)
	b.SetBytes(n * n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := k.Forward(x.Residues, y.Residues, top, left, out, kernel.Edge{}); err != nil {
			b.Fatal(err)
		}
	}
}

// The Backward and FillRect benchmarks run 1023 x 1024 rectangles: the odd
// row count sends the last row through the single-row tail after 511
// two-row passes.
const benchRows, benchCols = 1023, 1024

// benchSetup returns a kernel and pair for the odd-row benchmarks: DNA
// under linear -4, or protein under BLOSUM62 with affine -11/-1.
func benchSetup(affine bool) (*kernel.Kernel, []byte, []byte) {
	if affine {
		x, y := testutil.RandomPair(benchRows, benchCols, seq.Protein, 8)
		return kernel.New(scoring.BLOSUM62, kernel.Affine(-11, -1), memory.NewRowPool(), nil), x.Residues, y.Residues
	}
	x, y := testutil.RandomPair(benchRows, benchCols, seq.DNA, 8)
	return kernel.New(scoring.DNASimple, kernel.Linear(-4), memory.NewRowPool(), nil), x.Residues, y.Residues
}

func benchBackward(b *testing.B, affine bool) {
	k, x, y := benchSetup(affine)
	bottom := k.LeadEdge(benchCols, 0)
	right := k.LeadEdge(benchRows, 0)
	// Backward's corner is (m, n): shift both edges so they agree there.
	for i := range bottom.H {
		bottom.H[i] = k.Mod.GapCost(benchCols - i)
	}
	for i := range right.H {
		right.H[i] = k.Mod.GapCost(benchRows - i)
	}
	out := k.NewEdge(benchCols)
	b.SetBytes(benchRows * benchCols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Backward(x, y, bottom, right, out, kernel.Edge{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackwardLinear and BenchmarkBackwardAffine measure the suffix
// sweeps Hirschberg's split runs over the bottom half.
func BenchmarkBackwardLinear(b *testing.B) { benchBackward(b, false) }
func BenchmarkBackwardAffine(b *testing.B) { benchBackward(b, true) }

func benchFillRect(b *testing.B, affine bool) {
	k, x, y := benchSetup(affine)
	top := k.LeadEdge(benchCols, 0)
	left := k.LeadEdge(benchRows, 0)
	rt := k.MakeRect((benchRows + 1) * (benchCols + 1))
	b.SetBytes(benchRows * benchCols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.FillRect(x, y, top, left, rt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFillRectLinear and BenchmarkFillRectAffine measure the stored
// plane fill behind full-matrix solves and FastLSA base cases.
func BenchmarkFillRectLinear(b *testing.B) { benchFillRect(b, false) }
func BenchmarkFillRectAffine(b *testing.B) { benchFillRect(b, true) }
