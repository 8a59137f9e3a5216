package obs

import (
	"testing"
	"time"
)

// The server's default /v1/align path observes through a Recorder alone
// (no trace, labels off): once the recorder's head buffer exists, a phase
// bracket must not allocate.
func TestRunPhaseRecorderOnlyDoesNotAllocate(t *testing.T) {
	SetProfLabels(false)
	run := Run{Recorder: NewRecorder(16)}
	run.Phase(CatFastLSA, SpanGridFill, Tags{}).End() // allocate the head
	if allocs := testing.AllocsPerRun(200, func() {
		ph := run.Phase(CatFastLSA, SpanGridFill, Tags{Rows: 1, Cols: 2})
		ph.End()
	}); allocs != 0 {
		t.Errorf("recorder-only Run.Phase/End allocates %v per call, want 0", allocs)
	}
}

// One bracket feeds every sink with one extent: the span, the EvPhase event
// and the PhaseTimes charge carry the same name, category and duration.
func TestRunPhaseFeedsEverySink(t *testing.T) {
	SetProfLabels(true)
	defer SetProfLabels(false)

	run := Run{Trace: NewTrace(0), Recorder: NewRecorder(0)}
	key := [2]string{CatSearch, SpanSearchFilter}
	before := PhaseTimes()[key]
	ph := run.Phase(CatSearch, SpanSearchFilter, Tags{})
	time.Sleep(time.Millisecond)
	ph.Tags = Tags{Rows: 3, Cols: 1}
	ph.End()

	spans := run.Trace.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != SpanSearchFilter || sp.Cat != CatSearch || sp.Tags != (Tags{Rows: 3, Cols: 1}) {
		t.Errorf("span = %+v, want %s/%s with the tags set before End", sp, CatSearch, SpanSearchFilter)
	}
	evs := run.Recorder.Snapshot().Events
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != EvPhase || ev.Detail != SpanSearchFilter || ev.Extra != CatSearch {
		t.Errorf("event = %+v, want %s %s/%s", ev, EvPhase, CatSearch, SpanSearchFilter)
	}
	if ev.Duration != sp.Dur || ev.Duration < time.Millisecond {
		t.Errorf("event duration %v, span duration %v: want equal and >= 1ms", ev.Duration, sp.Dur)
	}
	if got := PhaseTimes()[key] - before; got != sp.Dur {
		t.Errorf("PhaseTimes charge %v, want the span's %v", got, sp.Dur)
	}
}
