package obs

import (
	"context"
	"runtime/pprof"
	"testing"
	"time"
)

// Labels disabled is the library default, so a zero Run's Phase/End must
// cost nothing on that path — one atomic load, no clock read, no allocation
// (same contract as the nil Recorder and disabled Trace).
func TestProfPhaseDisabledDoesNotAllocate(t *testing.T) {
	SetProfLabels(false)
	if allocs := testing.AllocsPerRun(200, func() {
		ph := Run{}.Phase(CatFastLSA, SpanGridFill, Tags{})
		ph.End()
	}); allocs != 0 {
		t.Errorf("disabled Run.Phase/End allocates %v per call, want 0", allocs)
	}
}

func TestProfPhaseDisabledContextFallback(t *testing.T) {
	SetProfLabels(false)
	base := context.Background()
	ph := Run{Labels: base}.Phase(CatWFA, SpanWFABi, Tags{})
	if got := ph.Run().Labels; got != base {
		t.Errorf("disabled phase's nested Labels = %v, want the run's base", got)
	}
	ph.End() // must be a no-op, not a panic
}

func TestProfPhaseSetsLabels(t *testing.T) {
	SetProfLabels(true)
	defer SetProfLabels(false)

	ph := Run{}.Phase(CatFastLSA, SpanGridFill, Tags{})
	lc := ph.Run().Labels
	if lc == nil {
		t.Fatal("enabled phase returned a nil labelled context")
	}
	if v, ok := pprof.Label(lc, "backend"); !ok || v != "fastlsa" {
		t.Errorf("backend label = %q (ok=%v), want fastlsa", v, ok)
	}
	if v, ok := pprof.Label(lc, "phase"); !ok || v != SpanGridFill {
		t.Errorf("phase label = %q (ok=%v), want %s", v, ok, SpanGridFill)
	}
	ph.End()
}

// Nested phases must restore the *outer phase's* labels on End, not the
// job's — the BiWFA recursion brackets inner fills inside the wfa-biwfa span.
func TestProfPhaseNestedRestore(t *testing.T) {
	SetProfLabels(true)
	defer SetProfLabels(false)

	outer := Run{}.Phase(CatWFA, SpanWFABi, Tags{})
	inner := outer.Run().Phase(CatWFA, SpanWFAFill, Tags{})
	if v, _ := pprof.Label(inner.Run().Labels, "phase"); v != SpanWFAFill {
		t.Errorf("inner phase label = %q, want %s", v, SpanWFAFill)
	}
	// The inner End restores its run's base: opened from the outer phase's
	// nested Run (as BiAlign does), that base carries the outer phase's
	// labels, not the job's.
	if v, _ := pprof.Label(inner.run.base(), "phase"); v != SpanWFABi {
		t.Errorf("inner restore target phase label = %q, want %s", v, SpanWFABi)
	}
	inner.End()
	outer.End()
}

func TestPhaseTimesAccumulate(t *testing.T) {
	SetProfLabels(true)
	defer SetProfLabels(false)

	key := [2]string{"test-backend", "test-phase"}
	before := PhaseTimes()[key]
	ph := Run{}.Phase(key[0], key[1], Tags{})
	time.Sleep(2 * time.Millisecond)
	ph.End()
	after := PhaseTimes()[key]
	if after <= before {
		t.Errorf("PhaseTimes[%v] did not grow: before %v, after %v", key, before, after)
	}
	if after-before < time.Millisecond {
		t.Errorf("accumulated %v, want >= 1ms", after-before)
	}
}

func TestProfSamplerRetainsNewest(t *testing.T) {
	p := StartProfSampler(time.Millisecond, 4)
	defer p.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(p.Snapshots()) == 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	snaps := p.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("retained %d snapshots, want the full ring of 4", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].At.Before(snaps[i-1].At) {
			t.Errorf("snapshots not oldest-first: %v then %v", snaps[i-1].At, snaps[i].At)
		}
	}
	if snaps[len(snaps)-1].Goroutines <= 0 {
		t.Errorf("latest snapshot has %d goroutines, want > 0", snaps[len(snaps)-1].Goroutines)
	}
}

func TestProfSamplerNilSafe(t *testing.T) {
	var p *ProfSampler
	p.Stop() // must not panic
	if got := p.Snapshots(); got != nil {
		t.Errorf("nil Snapshots = %v, want nil", got)
	}
}

func TestReadRuntime(t *testing.T) {
	rt := ReadRuntime()
	if rt.Goroutines <= 0 {
		t.Errorf("Goroutines = %d, want > 0", rt.Goroutines)
	}
	if rt.HeapBytes == 0 {
		t.Errorf("HeapBytes = 0, want > 0")
	}
	if rt.At.IsZero() {
		t.Errorf("At is zero")
	}
}
