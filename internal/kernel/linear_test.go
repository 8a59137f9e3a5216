package kernel_test

import (
	"testing"
	"testing/quick"

	"fastlsa/internal/fm"
	"fastlsa/internal/kernel"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
	"fastlsa/internal/testutil"
)

// fullMatrix computes the reference DPM of the linear model with the
// stored-rectangle fill, for comparison with the O(n)-space sweeps.
func fullMatrix(a, b []byte, m *scoring.Matrix, g int64, top, left []int64) []int64 {
	buf := make([]int64, (len(a)+1)*(len(b)+1))
	k := kernel.New(m, kernel.Linear(g), nil, nil)
	err := k.FillRect(a, b, kernel.Edge{H: top}, kernel.Edge{H: left}, kernel.Rect{H: buf})
	if err != nil {
		panic(err)
	}
	return buf
}

func TestBoundary(t *testing.T) {
	got := kernel.Boundary(nil, 4, 0, -10)
	want := []int64{0, -10, -20, -30, -40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Boundary[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Reuse of a larger destination.
	dst := make([]int64, 10)
	got = kernel.Boundary(dst, 3, 5, -2)
	if len(got) != 4 || got[0] != 5 || got[3] != -1 {
		t.Fatalf("Boundary reuse = %v", got)
	}
}

func TestForwardMatchesFullMatrix(t *testing.T) {
	g := int64(-4)
	for seed := int64(0); seed < 10; seed++ {
		a, b := testutil.RandomPair(int(seed%15)+1, int(seed*3%20)+1, seq.DNA, seed)
		m := testutil.RandomMatrix(seq.DNA, seed)
		k := kernel.New(m, kernel.Linear(g), nil, nil)
		top := kernel.Boundary(nil, b.Len(), 0, g)
		left := kernel.Boundary(nil, a.Len(), 0, g)
		outRow := make([]int64, b.Len()+1)
		outCol := make([]int64, a.Len()+1)
		if err := k.Forward(a.Residues, b.Residues, kernel.Edge{H: top}, kernel.Edge{H: left},
			kernel.Edge{H: outRow}, kernel.Edge{H: outCol}); err != nil {
			t.Fatal(err)
		}
		buf := fullMatrix(a.Residues, b.Residues, m, g, top, left)
		cols := b.Len() + 1
		for j := 0; j <= b.Len(); j++ {
			if outRow[j] != buf[a.Len()*cols+j] {
				t.Fatalf("seed %d: outRow[%d] = %d, matrix %d", seed, j, outRow[j], buf[a.Len()*cols+j])
			}
		}
		for r := 0; r <= a.Len(); r++ {
			if outCol[r] != buf[r*cols+b.Len()] {
				t.Fatalf("seed %d: outCol[%d] = %d, matrix %d", seed, r, outCol[r], buf[r*cols+b.Len()])
			}
		}
	}
}

// TestForwardAliasesTop verifies in-place operation when outRow aliases the
// top boundary.
func TestForwardAliasesTop(t *testing.T) {
	g := int64(-2)
	a, b := testutil.RandomPair(8, 9, seq.DNA, 3)
	k := kernel.New(scoring.DNASimple, kernel.Linear(g), nil, nil)
	left := kernel.Edge{H: kernel.Boundary(nil, a.Len(), 0, g)}
	ref := make([]int64, b.Len()+1)
	top := kernel.Edge{H: kernel.Boundary(nil, b.Len(), 0, g)}
	if err := k.Forward(a.Residues, b.Residues, top, left, kernel.Edge{H: ref}, kernel.Edge{}); err != nil {
		t.Fatal(err)
	}
	top2 := kernel.Edge{H: kernel.Boundary(nil, b.Len(), 0, g)}
	if err := k.Forward(a.Residues, b.Residues, top2, left, top2, kernel.Edge{}); err != nil {
		t.Fatal(err)
	}
	for j := range ref {
		if top2.H[j] != ref[j] {
			t.Fatalf("aliased run diverges at %d", j)
		}
	}
}

// TestBackwardMirrorsForward: the linear Backward sweep over (a, b) equals
// the Forward sweep over the reversed sequences with mirrored boundaries.
func TestBackwardMirrorsForward(t *testing.T) {
	g := int64(-3)
	for seed := int64(0); seed < 10; seed++ {
		a, b := testutil.RandomPair(int(seed%12)+1, int(seed*5%14)+1, seq.DNA, seed+50)
		m := testutil.RandomMatrix(seq.DNA, seed+50)
		k := kernel.New(m, kernel.Linear(g), nil, nil)

		bottom := make([]int64, b.Len()+1)
		right := make([]int64, a.Len()+1)
		for j := 0; j <= b.Len(); j++ {
			bottom[j] = int64(b.Len()-j) * g
		}
		for r := 0; r <= a.Len(); r++ {
			right[r] = int64(a.Len()-r) * g
		}
		outRow := make([]int64, b.Len()+1)
		if err := k.Backward(a.Residues, b.Residues, kernel.Edge{H: bottom}, kernel.Edge{H: right},
			kernel.Edge{H: outRow}, kernel.Edge{}); err != nil {
			t.Fatal(err)
		}

		ar, br := a.Reverse(), b.Reverse()
		top := kernel.Boundary(nil, br.Len(), 0, g)
		left := kernel.Boundary(nil, ar.Len(), 0, g)
		fwd := make([]int64, br.Len()+1)
		if err := k.Forward(ar.Residues, br.Residues, kernel.Edge{H: top}, kernel.Edge{H: left},
			kernel.Edge{H: fwd}, kernel.Edge{}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= b.Len(); j++ {
			if outRow[j] != fwd[b.Len()-j] {
				t.Fatalf("seed %d: backward[%d]=%d, mirrored forward=%d", seed, j, outRow[j], fwd[b.Len()-j])
			}
		}
	}
}

func TestScore(t *testing.T) {
	a, b := testutil.HomologousPair(200, seq.DNA, 4)
	m := scoring.DNASimple
	want, err := fm.Align(a, b, m, scoring.Linear(-4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kernel.New(m, kernel.Linear(-4), nil, nil).Score(a.Residues, b.Residues)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Score {
		t.Fatalf("Score = %d, want %d", got, want.Score)
	}
}

// TestInputValidation checks that the single-plane model rejects edges
// of the wrong length and a top/left corner mismatch.
func TestInputValidation(t *testing.T) {
	a, b := testutil.RandomPair(3, 3, seq.DNA, 1)
	lin := kernel.New(scoring.DNASimple, kernel.Linear(-1), nil, nil)
	good := kernel.Edge{H: kernel.Boundary(nil, 3, 0, -1)}
	short := kernel.Edge{H: make([]int64, 2)}
	if err := lin.Forward(a.Residues, b.Residues, short, good, kernel.Edge{}, kernel.Edge{}); err == nil {
		t.Fatal("short top must fail")
	}
	if err := lin.Forward(a.Residues, b.Residues, good, short, kernel.Edge{}, kernel.Edge{}); err == nil {
		t.Fatal("short left must fail")
	}
	badCorner := kernel.Edge{H: kernel.Boundary(nil, 3, 5, -1)}
	if err := lin.Forward(a.Residues, b.Residues, good, badCorner, kernel.Edge{}, kernel.Edge{}); err == nil {
		t.Fatal("corner mismatch must fail")
	}
	if err := lin.Forward(a.Residues, b.Residues, good, good, short, kernel.Edge{}); err == nil {
		t.Fatal("short outRow must fail")
	}
	if err := lin.Forward(a.Residues, b.Residues, good, good, kernel.Edge{}, short); err == nil {
		t.Fatal("short outCol must fail")
	}
}

func TestCellsCounted(t *testing.T) {
	var c stats.Counters
	a, b := testutil.RandomPair(7, 11, seq.DNA, 2)
	k := kernel.New(scoring.DNASimple, kernel.Linear(-1), nil, &c)
	top := kernel.Edge{H: kernel.Boundary(nil, 11, 0, -1)}
	left := kernel.Edge{H: kernel.Boundary(nil, 7, 0, -1)}
	if err := k.Forward(a.Residues, b.Residues, top, left, kernel.Edge{}, kernel.Edge{}); err != nil {
		t.Fatal(err)
	}
	if c.Cells.Load() != 77 {
		t.Fatalf("cells = %d, want 77", c.Cells.Load())
	}
}

// TestForwardQuickAgainstMatrix is a quick-check property comparing the
// linear sweep to the stored matrix on arbitrary inputs and boundary offsets.
func TestForwardQuickAgainstMatrix(t *testing.T) {
	m := scoring.DNAStrict
	letters := []byte("ACGT")
	f := func(xa, xb []uint8, corner int16) bool {
		if len(xa) > 24 {
			xa = xa[:24]
		}
		if len(xb) > 24 {
			xb = xb[:24]
		}
		ra := make([]byte, len(xa))
		for i, v := range xa {
			ra[i] = letters[int(v)%4]
		}
		rb := make([]byte, len(xb))
		for i, v := range xb {
			rb[i] = letters[int(v)%4]
		}
		g := int64(-2)
		k := kernel.New(m, kernel.Linear(g), nil, nil)
		top := kernel.Boundary(nil, len(rb), int64(corner), g)
		left := kernel.Boundary(nil, len(ra), int64(corner), g)
		out := make([]int64, len(rb)+1)
		if err := k.Forward(ra, rb, kernel.Edge{H: top}, kernel.Edge{H: left}, kernel.Edge{H: out}, kernel.Edge{}); err != nil {
			return false
		}
		buf := fullMatrix(ra, rb, m, g, top, left)
		for j := 0; j <= len(rb); j++ {
			if out[j] != buf[len(ra)*(len(rb)+1)+j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
