package memory_test

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"fastlsa/internal/memory"
)

func TestBudgetBasics(t *testing.T) {
	b, err := memory.NewBudget(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(60); err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(50); err == nil {
		t.Fatal("over-reservation must fail")
	} else if !errors.Is(err, memory.ErrExceeded) {
		t.Fatalf("error %v does not wrap ErrExceeded", err)
	}
	if err := b.Reserve(40); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 100 || b.Available() != 0 {
		t.Fatalf("used=%d available=%d", b.Used(), b.Available())
	}
	b.Release(100)
	if b.Used() != 0 || b.Peak() != 100 {
		t.Fatalf("used=%d peak=%d", b.Used(), b.Peak())
	}
}

func TestBudgetValidation(t *testing.T) {
	if _, err := memory.NewBudget(0); err == nil {
		t.Fatal("zero budget must fail")
	}
	if _, err := memory.NewBudget(-5); err == nil {
		t.Fatal("negative budget must fail")
	}
	b, _ := memory.NewBudget(10)
	if err := b.Reserve(-1); err == nil {
		t.Fatal("negative reserve must fail")
	}
}

func TestBudgetUnderflowPanics(t *testing.T) {
	b, _ := memory.NewBudget(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on underflow")
		}
	}()
	b.Release(1)
}

func TestNilBudgetUnlimited(t *testing.T) {
	var b *memory.Budget
	if !b.Unlimited() {
		t.Fatal("nil budget must be unlimited")
	}
	if err := b.Reserve(1 << 60); err != nil {
		t.Fatal(err)
	}
	b.Release(1 << 60)
	if b.Used() != 0 || b.Total() != 0 || b.Peak() != 0 {
		t.Fatal("nil budget accounting must be zero")
	}
	if b.String() != "budget(unlimited)" {
		t.Fatalf("string = %q", b.String())
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b, _ := memory.NewBudget(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := b.Reserve(5); err == nil {
					b.Release(5)
				}
			}
		}()
	}
	wg.Wait()
	if b.Used() != 0 {
		t.Fatalf("used = %d after balanced ops", b.Used())
	}
	if b.Peak() > 1000 {
		t.Fatalf("peak %d exceeded total", b.Peak())
	}
}

// TestBudgetNeverOvercommits: under arbitrary reserve sequences the used
// count never exceeds the total.
func TestBudgetNeverOvercommits(t *testing.T) {
	f := func(sizes []uint16) bool {
		b, _ := memory.NewBudget(1 << 14)
		for _, s := range sizes {
			_ = b.Reserve(int64(s))
			if b.Used() > b.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRowPool(t *testing.T) {
	p := memory.NewRowPool()
	s := p.GetFull(100)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	p.Put(s)
	s2 := p.Get(50)
	if len(s2) != 0 || cap(s2) < 50 {
		t.Fatalf("len=%d cap=%d", len(s2), cap(s2))
	}
	// nil pool is usable.
	var np *memory.RowPool
	if got := np.GetFull(7); len(got) != 7 {
		t.Fatalf("nil pool GetFull len = %d", len(got))
	}
	np.Put(got7())
}

func got7() []int64 { return make([]int64, 7) }

// TestRowPoolLargeAfterSmall: a short row returned alongside a long one must
// not make the next request for the long size miss, or the largest buffers
// of a run are reallocated on almost every call.
func TestRowPoolLargeAfterSmall(t *testing.T) {
	p := memory.NewRowPool()
	const big, small = 30000, 2001
	reused := 0
	for i := 0; i < 20; i++ {
		b := p.GetFull(big)
		p.Put(p.GetFull(small))
		p.Put(b)
		got := p.GetFull(big)
		if len(got) != big {
			t.Fatalf("len = %d, want %d", len(got), big)
		}
		if &got[0] == &b[0] {
			reused++
		}
		p.Put(got)
	}
	// sync.Pool may drop any Put (the race detector drops a quarter of
	// them on purpose), so demand reuse, not reuse every time.
	if reused == 0 {
		t.Fatal("the pool never handed a returned long row back to a long request")
	}
}

func TestRowPoolCapacities(t *testing.T) {
	p := memory.NewRowPool()
	for n := 0; n <= 5000; n += 7 {
		s := p.GetFull(n)
		if len(s) != n {
			t.Fatalf("GetFull(%d): len %d", n, len(s))
		}
		if n > 16 && cap(s) > n+n/4 {
			t.Fatalf("GetFull(%d): cap %d, more than 25%% over", n, cap(s))
		}
		p.Put(s)
		for _, m := range []int{n, n + 1, n/2 + 1} {
			if got := p.Get(m); len(got) != 0 || cap(got) < m {
				t.Fatalf("Get(%d) after Put(cap %d): len %d cap %d", m, cap(s), len(got), cap(got))
			}
		}
	}
}
