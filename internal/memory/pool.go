package memory

import (
	"math/bits"
	"sync"
)

// RowPool recycles int64 row buffers between DP passes. FastLSA's recursion
// allocates and frees many rows of similar sizes; pooling them keeps the
// allocator out of the inner loop without changing the budget accounting
// (budgets charge logical entries, pools manage physical slices).
//
// Buffers are kept in size classes — quarter steps between powers of two —
// so a request only ever meets buffers large enough to serve it: rows of
// many sizes share the pool, and the largest buffers of a run (the base case
// rectangle, the grid lines) must not be dropped for a short row popped
// first. A pooled slice is at most 25% longer than the request it served.
type RowPool struct {
	// rows[c] holds *[]int64 of at least class c's size (classUp) — pointers,
	// so Put does not box a slice header into an interface on every call
	// (that boxing is itself an allocation, which would defeat the pool on
	// the hot path).
	rows [numClasses]sync.Pool
	// hdrs recycles the header boxes emptied by Get so Put can fill one
	// without allocating.
	hdrs sync.Pool
}

const (
	// minClassShift: the smallest class holds 1<<minClassShift entries;
	// shorter slices are not pooled.
	minClassShift = 4
	// maxClassShift bounds the pooled sizes (2^40 entries is far past any
	// budget); larger requests are plain allocations.
	maxClassShift = 40
	numClasses    = 4*(maxClassShift-minClassShift) + 1
)

// classUp returns the smallest class whose size is at least n, and that size.
func classUp(n int) (class, size int) {
	if n <= 1<<minClassShift {
		return 0, 1 << minClassShift
	}
	e := bits.Len(uint(n-1)) - 1 // 2^e < n <= 2^(e+1)
	base, step := 1<<e, 1<<(e-2)
	q := (n - base + step - 1) / step // 1..4
	return 4*(e-minClassShift) + q, base + q*step
}

// classDown returns the largest class whose size is at most c, or -1 when c
// is below the smallest class.
func classDown(c int) int {
	if c < 1<<minClassShift {
		return -1
	}
	e := bits.Len(uint(c)) - 1 // 2^e <= c < 2^(e+1)
	base, step := 1<<e, 1<<(e-2)
	return 4*(e-minClassShift) + (c-base)/step
}

// NewRowPool returns an empty pool.
func NewRowPool() *RowPool { return &RowPool{} }

// Get returns a zero-length slice with capacity >= n. The contents are
// unspecified; callers must initialise every entry they read.
func (p *RowPool) Get(n int) []int64 {
	if p == nil {
		return make([]int64, 0, n)
	}
	class, size := classUp(n)
	if class >= numClasses {
		return make([]int64, 0, n)
	}
	if v, ok := p.rows[class].Get().(*[]int64); ok {
		s := *v
		*v = nil
		p.hdrs.Put(v)
		return s[:0]
	}
	return make([]int64, 0, size)
}

// GetFull returns a length-n slice (contents unspecified).
func (p *RowPool) GetFull(n int) []int64 { return p.Get(n)[:n] }

// Put recycles a slice obtained from Get (or any slice the caller owns).
// Put files it by capacity, so the slice must not be re-sliced down in
// capacity if it is to be reused at its full size.
func (p *RowPool) Put(s []int64) {
	if p == nil {
		return
	}
	class := classDown(cap(s))
	if class < 0 || class >= numClasses {
		return
	}
	v, ok := p.hdrs.Get().(*[]int64)
	if !ok {
		v = new([]int64)
	}
	*v = s[:0]
	p.rows[class].Put(v)
}
