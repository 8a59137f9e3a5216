package kernel_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fastlsa/internal/kernel"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
)

// The differential suite holds Forward, Backward and FillRegion to the
// single-row oracle in oracle_test.go: every output lane entry, every stored
// plane entry (inside the filled region and out) and the cell count must be
// identical, under the linear model, the affine model and the degenerate
// Affine(0, ext), from random boundary values rather than only leading-gap
// ones.

var diffModels = []kernel.Model{kernel.Linear(-3), kernel.Affine(-7, -2), kernel.Affine(0, -3)}

// randLane returns n+1 random DP values; with dead set, about a quarter of
// them are NegInf (an unreachable gap state).
func randLane(rng *rand.Rand, n int, dead bool) []int64 {
	s := make([]int64, n+1)
	for i := range s {
		s[i] = rng.Int63n(2001) - 1000
		if dead && rng.Intn(4) == 0 {
			s[i] = kernel.NegInf
		}
	}
	return s
}

// randEdge returns a random boundary edge of n+1 entries (H and, affine
// models, the gap lane).
func randEdge(rng *rand.Rand, mod kernel.Model, n int) kernel.Edge {
	e := kernel.Edge{H: randLane(rng, n, false)}
	if mod.IsAffine() {
		e.G = randLane(rng, n, true)
	}
	return e
}

// counted returns a copy of k that counts onto a fresh Counters.
func counted(k *kernel.Kernel) (*kernel.Kernel, *stats.Counters) {
	c := &stats.Counters{}
	kc := *k
	kc.C = c
	return &kc, c
}

func sameEdge(t testing.TB, what string, got, want kernel.Edge) {
	t.Helper()
	if !slices.Equal(got.H, want.H) {
		t.Fatalf("%s H:\n got %v\nwant %v", what, got.H, want.H)
	}
	if want.G != nil && !slices.Equal(got.G, want.G) {
		t.Fatalf("%s gap lane:\n got %v\nwant %v", what, got.G, want.G)
	}
}

// checkSweeps compares Forward and Backward over a x b against the oracle,
// once into fresh output edges and once with outRow aliasing the input row
// edge (and no outCol).
func checkSweeps(t testing.TB, k *kernel.Kernel, a, b []byte, rng *rand.Rand) {
	t.Helper()
	m, n := len(a), len(b)
	newOut := func(size int) kernel.Edge {
		e := kernel.Edge{H: make([]int64, size+1)}
		if k.Mod.IsAffine() {
			e.G = make([]int64, size+1)
		}
		return e
	}

	top, left := randEdge(rng, k.Mod, n), randEdge(rng, k.Mod, m)
	left.H[0] = top.H[0]
	wantRow, wantCol, wantCells := refForward(k, a, b, top, left)
	kc, c := counted(k)
	row, col := newOut(n), newOut(m)
	if err := kc.Forward(a, b, top, left, row, col); err != nil {
		t.Fatal(err)
	}
	sameEdge(t, "Forward outRow", row, wantRow)
	sameEdge(t, "Forward outCol", col, wantCol)
	if got := c.Cells.Load(); got != wantCells {
		t.Fatalf("Forward counted %d cells, oracle %d", got, wantCells)
	}
	alias := cloneEdge(top)
	if err := k.Forward(a, b, alias, left, alias, kernel.Edge{}); err != nil {
		t.Fatal(err)
	}
	sameEdge(t, "Forward outRow aliasing top", alias, wantRow)

	bottom, right := randEdge(rng, k.Mod, n), randEdge(rng, k.Mod, m)
	right.H[m] = bottom.H[n]
	wantRow, wantCol, wantCells = refBackward(k, a, b, bottom, right)
	kc, c = counted(k)
	row, col = newOut(n), newOut(m)
	if err := kc.Backward(a, b, bottom, right, row, col); err != nil {
		t.Fatal(err)
	}
	sameEdge(t, "Backward outRow", row, wantRow)
	sameEdge(t, "Backward outCol", col, wantCol)
	if got := c.Cells.Load(); got != wantCells {
		t.Fatalf("Backward counted %d cells, oracle %d", got, wantCells)
	}
	alias = cloneEdge(bottom)
	if err := k.Backward(a, b, alias, right, alias, kernel.Edge{}); err != nil {
		t.Fatal(err)
	}
	sameEdge(t, "Backward outRow aliasing bottom", alias, wantRow)
}

// checkRegion fills the sub-rectangle (r0..r1) x (c0..c1) of randomly
// filled planes with FillRegion and with the oracle, and requires every
// plane entry and the cell count to agree.
func checkRegion(t testing.TB, k *kernel.Kernel, a, b []byte, r0, r1, c0, c1 int, rng *rand.Rand) {
	t.Helper()
	entries := (len(a) + 1) * (len(b) + 1)
	got := kernel.Rect{H: randLane(rng, entries-1, false)}
	if k.Mod.IsAffine() {
		got.E, got.F = randLane(rng, entries-1, true), randLane(rng, entries-1, true)
	}
	want := kernel.Rect{H: cloneLane(got.H), E: cloneLane(got.E), F: cloneLane(got.F)}
	wantCells := refFillRegion(k, a, b, want, r0, r1, c0, c1)
	kc, c := counted(k)
	if err := kc.FillRegion(a, b, got, r0, r1, c0, c1); err != nil {
		t.Fatal(err)
	}
	region := fmt.Sprintf("region rows %d..%d cols %d..%d", r0, r1, c0, c1)
	for _, p := range []struct {
		name      string
		got, want []int64
	}{{"H", got.H, want.H}, {"E", got.E, want.E}, {"F", got.F, want.F}} {
		if i := firstDiff(p.got, p.want); i >= 0 {
			stride := len(b) + 1
			t.Fatalf("%s: plane %s differs at node (%d,%d): got %d, oracle %d",
				region, p.name, i/stride, i%stride, p.got[i], p.want[i])
		}
	}
	if n := c.Cells.Load(); n != wantCells {
		t.Fatalf("%s: counted %d cells, oracle %d", region, n, wantCells)
	}
}

func firstDiff(a, b []int64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// checkKernel runs the sweep comparisons, the whole-rectangle fill and one
// random sub-region fill for one pair.
func checkKernel(t testing.TB, k *kernel.Kernel, a, b []byte, rng *rand.Rand) {
	t.Helper()
	checkSweeps(t, k, a, b, rng)
	m, n := len(a), len(b)
	checkRegion(t, k, a, b, 0, m, 0, n, rng)
	r0, c0 := rng.Intn(m+1), rng.Intn(n+1)
	r1, c1 := r0+rng.Intn(m-r0+1), c0+rng.Intn(n-c0+1)
	checkRegion(t, k, a, b, r0, r1, c0, c1, rng)
}

// TestKernelSweepRows covers the two-row passes and the odd-row tail
// deterministically: every row count in the table, against several column
// counts, under every model.
func TestKernelSweepRows(t *testing.T) {
	for mi, mod := range diffModels {
		for _, rows := range []int{0, 1, 2, 3, 4, 7} {
			for _, cols := range []int{0, 1, 2, 5, 16} {
				seed := int64(100*mi + 10*rows + cols)
				a, b := testutil.RandomPair(rows, cols, seq.DNA, seed)
				k := kernel.New(testutil.RandomMatrix(seq.DNA, seed), mod, nil, nil)
				checkKernel(t, k, a.Residues, b.Residues, rand.New(rand.NewSource(seed)))
			}
		}
	}
}

// FuzzKernelSweep drives the differential comparison from fuzzed residues
// (mapped onto the DNA alphabet, at most 64 per side), a fuzzed seed for the
// scoring matrix, boundary edges and sub-region, and a fuzzed model choice.
func FuzzKernelSweep(f *testing.F) {
	f.Add([]byte("ACGT"), []byte("AGGTC"), int64(1), uint8(0))
	f.Add([]byte("A"), []byte("ACGTACGT"), int64(2), uint8(1))
	f.Add([]byte("AC"), []byte(""), int64(3), uint8(2))
	f.Add([]byte("ACG"), []byte("TTGCA"), int64(4), uint8(1))
	f.Add([]byte("GATTACAGATTACA"), []byte("GCATGCAT"), int64(5), uint8(0))
	f.Fuzz(func(t *testing.T, ra, rb []byte, seed int64, model uint8) {
		residues := seq.DNA.Letters
		toDNA := func(raw []byte) []byte {
			out := make([]byte, min(len(raw), 64))
			for i := range out {
				out[i] = residues[int(raw[i])%len(residues)]
			}
			return out
		}
		a, b := toDNA(ra), toDNA(rb)
		mod := diffModels[int(model)%len(diffModels)]
		k := kernel.New(testutil.RandomMatrix(seq.DNA, seed), mod, nil, nil)
		checkKernel(t, k, a, b, rand.New(rand.NewSource(seed)))
	})
}
