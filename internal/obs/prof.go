package obs

// CPU attribution: runtime/pprof labels around solver phases and engine
// workers, so a live /debug/pprof/profile attributes samples to
// (job_id, backend, phase, mode); a wall-clock per-(backend, phase)
// accumulator behind the fastlsa_prof_cpu_seconds_total metric; and a
// lightweight continuous-capture sampler of process-level deltas.
//
// Labelling is gated behind one atomic flag (SetProfLabels): disabled — the
// library default — the label half of Run.Phase costs one atomic load and
// allocates nothing (AllocsPerRun-guarded like the disabled Trace and fault
// sites). Label brackets are applied at phase granularity (a handful per
// alignment), never inside tile or cell loops.

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

var profLabelsOn atomic.Bool

// SetProfLabels switches pprof label attribution (and the per-phase CPU
// accumulator) on or off process-wide. Off by default.
func SetProfLabels(on bool) { profLabelsOn.Store(on) }

// ProfLabelsEnabled reports whether label attribution is on.
func ProfLabelsEnabled() bool { return profLabelsOn.Load() }

// phaseTimes accumulates wall-clock per (backend, phase); the server drains
// it into fastlsa_prof_cpu_seconds_total at scrape time.
var phaseTimes struct {
	mu sync.Mutex
	m  map[[2]string]time.Duration
}

func addPhaseTime(backend, phase string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	phaseTimes.mu.Lock()
	if phaseTimes.m == nil {
		phaseTimes.m = make(map[[2]string]time.Duration)
	}
	phaseTimes.m[[2]string{backend, phase}] += d
	phaseTimes.mu.Unlock()
}

// PhaseTimes snapshots the cumulative labelled phase time per
// (backend, phase). Totals only grow, so the caller can export them as
// counters by diffing against the last snapshot.
func PhaseTimes() map[[2]string]time.Duration {
	phaseTimes.mu.Lock()
	defer phaseTimes.mu.Unlock()
	out := make(map[[2]string]time.Duration, len(phaseTimes.m))
	for k, v := range phaseTimes.m {
		out[k] = v
	}
	return out
}

// runtime/metrics sample names read by RuntimeSnapshot. Unknown names (older
// runtimes) read as zero.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/total:cpu-seconds",
}

// RuntimeSnapshot is one point-in-time process sample.
type RuntimeSnapshot struct {
	At             time.Time `json:"at"`
	Goroutines     int64     `json:"goroutines"`
	HeapBytes      uint64    `json:"heapBytes"`
	GCCycles       uint64    `json:"gcCycles"`
	GCPauseSeconds float64   `json:"gcPauseSeconds"`
	CPUSeconds     float64   `json:"cpuSeconds"`
}

// ReadRuntime samples the runtime: goroutines, live heap bytes, GC cycle
// count and total CPU seconds via runtime/metrics, plus the cumulative GC
// pause total. Cheap enough to call per scrape.
func ReadRuntime() RuntimeSnapshot {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	snap := RuntimeSnapshot{At: time.Now()}
	for i, s := range samples {
		switch runtimeSampleNames[i] {
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.Goroutines = int64(s.Value.Uint64())
			}
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.HeapBytes = s.Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.GCCycles = s.Value.Uint64()
			}
		case "/cpu/classes/total:cpu-seconds":
			if s.Value.Kind() == metrics.KindFloat64 {
				snap.CPUSeconds = s.Value.Float64()
			}
		}
	}
	if snap.Goroutines == 0 {
		snap.Goroutines = int64(runtime.NumGoroutine())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.GCPauseSeconds = float64(ms.PauseTotalNs) / float64(time.Second)
	if snap.HeapBytes == 0 {
		snap.HeapBytes = ms.HeapAlloc
	}
	return snap
}

// ProfSampler runs the continuous-capture loop: one RuntimeSnapshot per
// interval into a bounded ring, so "what was the process doing just before
// the incident" is answerable without an attached profiler.
type ProfSampler struct {
	mu   sync.Mutex
	ring []RuntimeSnapshot
	pos  int
	full bool
	stop chan struct{}
	done chan struct{}
}

// StartProfSampler begins sampling every interval, keeping the newest
// capacity snapshots (default 120 when capacity <= 0). Stop it with Stop.
func StartProfSampler(interval time.Duration, capacity int) *ProfSampler {
	if capacity <= 0 {
		capacity = 120
	}
	p := &ProfSampler{
		ring: make([]RuntimeSnapshot, capacity),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.loop(interval)
	return p
}

func (p *ProfSampler) loop(interval time.Duration) {
	defer close(p.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	p.record(ReadRuntime())
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.record(ReadRuntime())
		}
	}
}

func (p *ProfSampler) record(s RuntimeSnapshot) {
	p.mu.Lock()
	p.ring[p.pos] = s
	p.pos = (p.pos + 1) % len(p.ring)
	if p.pos == 0 {
		p.full = true
	}
	p.mu.Unlock()
}

// Snapshots returns the retained samples, oldest first.
func (p *ProfSampler) Snapshots() []RuntimeSnapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.full {
		return append([]RuntimeSnapshot(nil), p.ring[:p.pos]...)
	}
	out := make([]RuntimeSnapshot, 0, len(p.ring))
	out = append(out, p.ring[p.pos:]...)
	out = append(out, p.ring[:p.pos]...)
	return out
}

// Stop ends the sampling loop and waits for it to exit. Nil-safe.
func (p *ProfSampler) Stop() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
}
