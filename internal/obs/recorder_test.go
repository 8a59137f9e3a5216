package obs

import (
	"sync"
	"testing"
	"time"
)

func TestRecorderRecordsInOrder(t *testing.T) {
	r := NewRecorder(16)
	r.Add(Event{Kind: EvAdmit, Detail: "align"})
	r.Add(Event{Kind: EvStart, Attempt: 1, Duration: 3 * time.Millisecond})
	r.Add(Event{Kind: EvFinish, Detail: "succeeded"})

	snap := r.Snapshot()
	if snap.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", snap.Dropped)
	}
	if snap.Total != 3 {
		t.Errorf("Total = %d, want 3", snap.Total)
	}
	kinds := make([]string, len(snap.Events))
	for i, e := range snap.Events {
		kinds[i] = e.Kind
	}
	want := []string{EvAdmit, EvStart, EvFinish}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("events[%d].Kind = %q, want %q", i, kinds[i], want[i])
		}
	}
	// Offsets are stamped from the epoch and never decrease.
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i].Offset < snap.Events[i-1].Offset {
			t.Errorf("offsets not monotonic: %v then %v",
				snap.Events[i-1].Offset, snap.Events[i].Offset)
		}
	}
	if snap.Events[1].Attempt != 1 || snap.Events[1].Duration != 3*time.Millisecond {
		t.Errorf("start event lost its fields: %+v", snap.Events[1])
	}
}

// TestRecorderHeadTailRetention floods a small recorder and checks the
// head+tail shape: the earliest events survive verbatim, the newest survive
// in the tail ring, and the middle is dropped but counted.
func TestRecorderHeadTailRetention(t *testing.T) {
	const capacity = 8 // head 6, tail 2
	r := NewRecorder(capacity)
	const total = 20
	for i := 0; i < total; i++ {
		r.Add(Event{Kind: EvPhase, Attempt: i})
	}

	snap := r.Snapshot()
	if snap.Total != total {
		t.Errorf("Total = %d, want %d", snap.Total, total)
	}
	if len(snap.Events) != capacity {
		t.Fatalf("retained %d events, want %d", len(snap.Events), capacity)
	}
	if want := total - capacity; snap.Dropped != want {
		t.Errorf("Dropped = %d, want %d", snap.Dropped, want)
	}
	// Head: the first 6 events, in order.
	for i := 0; i < 6; i++ {
		if snap.Events[i].Attempt != i {
			t.Errorf("head[%d].Attempt = %d, want %d", i, snap.Events[i].Attempt, i)
		}
	}
	// Tail: the newest 2 events, in order.
	for i, want := range []int{total - 2, total - 1} {
		got := snap.Events[6+i].Attempt
		if got != want {
			t.Errorf("tail[%d].Attempt = %d, want %d", i, got, want)
		}
	}
}

// TestRecorderGrowsOnDemand checks a default recorder allocates by use, not
// by capacity: a typical job's ~40 events fit in at most 64 slots, and a
// flood still stops at exactly the head and tail caps.
func TestRecorderGrowsOnDemand(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 40; i++ {
		r.Add(Event{Kind: EvPhase, Attempt: i})
	}
	if slots := cap(r.head) + cap(r.tail); slots > 64 {
		t.Errorf("40-event recorder holds %d slots, want <= 64", slots)
	}
	for i := 40; i < 1000; i++ {
		r.Add(Event{Kind: EvPhase, Attempt: i})
	}
	if cap(r.head) != r.headCap || cap(r.tail) != r.tailCap {
		t.Errorf("flooded recorder caps head %d tail %d, want %d and %d", cap(r.head), cap(r.tail), r.headCap, r.tailCap)
	}
	snap := r.Snapshot()
	if len(snap.Events) != DefaultRecorderEvents || snap.Dropped != 1000-DefaultRecorderEvents || snap.Total != 1000 {
		t.Fatalf("retained %d, dropped %d, total %d", len(snap.Events), snap.Dropped, snap.Total)
	}
	if first, last := snap.Events[0].Attempt, snap.Events[len(snap.Events)-1].Attempt; first != 0 || last != 999 {
		t.Errorf("timeline spans %d..%d, want 0..999", first, last)
	}
}

func TestRecorderNilIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Event{Kind: EvAdmit}) // must not panic
	if r.Len() != 0 {
		t.Errorf("nil Len = %d, want 0", r.Len())
	}
	snap := r.Snapshot()
	if snap.Events == nil || len(snap.Events) != 0 || snap.Total != 0 {
		t.Errorf("nil Snapshot = %+v, want empty non-nil events", snap)
	}
}

// The nil recorder is the library default: alignment hot paths call Add
// unconditionally, so the disabled path must not allocate (same contract as
// the disabled Trace and the disarmed fault sites).
func TestRecorderNilAddDoesNotAllocate(t *testing.T) {
	var r *Recorder
	ev := Event{Kind: EvPhase, Detail: SpanGridFill}
	if allocs := testing.AllocsPerRun(200, func() { r.Add(ev) }); allocs != 0 {
		t.Errorf("nil Recorder.Add allocates %v per call, want 0", allocs)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	const writers, per = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add(Event{Kind: EvPhase, Attempt: w})
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Total != writers*per {
		t.Errorf("Total = %d, want %d", snap.Total, writers*per)
	}
	if len(snap.Events)+snap.Dropped != snap.Total {
		t.Errorf("retained %d + dropped %d != total %d",
			len(snap.Events), snap.Dropped, snap.Total)
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < DefaultRecorderEvents; i++ {
		r.Add(Event{Kind: EvPhase})
	}
	if got := r.Len(); got != DefaultRecorderEvents {
		t.Errorf("Len after filling default capacity = %d, want %d", got, DefaultRecorderEvents)
	}
	r.Add(Event{Kind: EvPhase})
	if got := r.Len(); got != DefaultRecorderEvents {
		t.Errorf("Len after overflow = %d, want %d (bounded)", got, DefaultRecorderEvents)
	}
}
