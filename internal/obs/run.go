package obs

import (
	"context"
	"runtime/pprof"
	"time"
)

// Run is the observation handle of one alignment or search run: the span
// trace, the flight recorder and the pprof-labelled base context, threaded
// as one value from the facade through the backend layer into every solver.
// The zero value observes nothing; each sink is optional.
type Run struct {
	// Trace, when non-nil, records the run's spans.
	Trace *Trace
	// Recorder, when non-nil, is the job's flight recorder: phase
	// completions, routing decisions and degradation-ladder steps land in it.
	Recorder *Recorder
	// Labels, when non-nil, is the pprof-labelled base context threaded from
	// the engine worker; phase labels merge into it so job_id/mode survive.
	// Ignored while SetProfLabels is off.
	Labels context.Context
}

// Phase is one in-flight solver or search phase, opened by Run.Phase and
// closed by End. A value type: the fully disabled path allocates nothing.
type Phase struct {
	// Tags are the span's dimensions. A caller may set them after Phase
	// when they are only known once the phase has run.
	Tags      Tags
	run       Run
	cat, name string
	start     time.Time       // zero when every sink is off
	lc        context.Context // labelled context, nil when labels are off
}

// Phase opens the phase name of category cat on every sink of the run: a
// span in Trace, an EvPhase event in Recorder and, while SetProfLabels is
// on, pprof labels {backend: cat, phase: name} on the calling goroutine
// plus a PhaseTimes charge. All three share one extent: the clock is read
// once here and once in End, and not at all when every sink is off.
//
// End must run on the same goroutine; goroutines spawned in between (the
// parallel fill's workers) inherit the labels.
func (r Run) Phase(cat, name string, tags Tags) Phase {
	p := Phase{Tags: tags, run: r, cat: cat, name: name}
	labels := profLabelsOn.Load()
	if r.Trace == nil && r.Recorder == nil && !labels {
		return p
	}
	p.start = time.Now()
	if labels {
		p.lc = pprof.WithLabels(r.base(), pprof.Labels("backend", cat, "phase", name))
		pprof.SetGoroutineLabels(p.lc)
	}
	return p
}

// End closes the phase on every sink Phase opened it on and restores the
// run's base labels.
func (p Phase) End() {
	if p.start.IsZero() {
		return
	}
	now := time.Now()
	d := now.Sub(p.start)
	if p.lc != nil {
		pprof.SetGoroutineLabels(p.run.base())
		addPhaseTime(p.cat, p.name, d)
	}
	p.run.Trace.span(p.name, p.cat, p.start, now, p.Tags)
	p.run.Recorder.addAt(Event{Kind: EvPhase, Detail: p.name, Extra: p.cat, Duration: d}, now)
}

// Run returns the handle for sub-runs nested inside the phase: the same
// sinks, with this phase's labels as the base, so a nested phase's End
// restores them rather than the job's.
func (p Phase) Run() Run {
	r := p.run
	if p.lc != nil {
		r.Labels = p.lc
	}
	return r
}

func (r Run) base() context.Context {
	if r.Labels == nil {
		return context.Background()
	}
	return r.Labels
}
