package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastlsa"
	"fastlsa/internal/fault"
	"fastlsa/internal/obs"
)

// siteDecode is the fault-injection point on request-body decoding: armed it
// rehearses malformed-input handling (the server must answer 400, never 500,
// and never leak a job submission for a body it could not parse).
var siteDecode = fault.NewSite("server.decode")

// decodeJSON decodes a request body, striking the server.decode injection
// point first. Every handler that reads a body routes through it.
func decodeJSON(r *http.Request, v any) error {
	if err := siteDecode.Hit(); err != nil {
		return err
	}
	return json.NewDecoder(r.Body).Decode(v)
}

// Shed reasons: the "reason" field of every overload 503 and the label of
// fastlsa_shed_total. admit decides the first three before a request reaches
// the engine; the engine's own rejections map onto the last two.
const (
	shedRecovering = "recovering" // async only: journal replay still running
	shedQueueWait  = "queue-wait" // sync only: the p95 queue-wait breaker is open
	shedErrorBurn  = "error-burn" // sync only: error-rate fast burn >= -breaker-burn
	shedQueueFull  = "queue-full" // engine: ErrQueueFull
	shedDraining   = "draining"   // engine: ErrEngineClosed
)

// shedError is an overload rejection. retryAfter is the reason's own lower
// bound on the Retry-After hint (0 leaves it to queue pressure).
type shedError struct {
	reason     string
	retryAfter time.Duration
	msg        string
}

func (e *shedError) Error() string { return e.msg }

// admit is the server's one admission decision, taken before a request is
// submitted to the engine. async marks POST /v1/jobs, whose callers opted
// into queueing: only a running journal replay turns them away. Synchronous
// requests are shed while the queue-wait breaker is open or the error budget
// burns at or over -breaker-burn. /v1/batch, whose callers also opted into
// queueing, takes no decision here. The engine itself rejects a full queue or
// a draining engine at submission (see shedOf).
func (s *server) admit(async bool) error {
	if async {
		if s.recovering.Load() {
			return &shedError{shedRecovering, 0, "server is recovering journalled jobs"}
		}
		return nil
	}
	if rem := s.breaker.remaining(time.Now()); rem > 0 {
		return &shedError{shedQueueWait, rem,
			fmt.Sprintf("overload breaker open (p95 queue wait over %s)", s.cfg.BreakerWait)}
	}
	if limit := s.cfg.BreakerBurn; limit > 0 {
		if burn := s.slos.Burn(sloErrors, obs.SLOShortWindow); burn >= limit {
			return &shedError{shedErrorBurn, 0,
				fmt.Sprintf("error-rate fast burn %.4g at or over %.4g", burn, limit)}
		}
	}
	return nil
}

// shedOf reports the overload rejection err carries: an admit decision, or
// the engine's ErrQueueFull / ErrEngineClosed. nil for any other error.
func shedOf(err error) *shedError {
	var se *shedError
	switch {
	case errors.As(err, &se):
		return se
	case errors.Is(err, fastlsa.ErrQueueFull):
		return &shedError{reason: shedQueueFull, msg: err.Error()}
	case errors.Is(err, fastlsa.ErrEngineClosed):
		return &shedError{reason: shedDraining, msg: err.Error()}
	}
	return nil
}

// writeTaskErr maps an admission, submission or task error to its HTTP
// response. Overload gets the one shed response: 503 with a Retry-After
// header and a {"error","reason","retryAfterMs"} body, counted in
// fastlsa_shed_total. Its hint is the reason's own bound or a queue-pressure
// guess (half a second per queued job), whichever is longer, clamped to
// [1s, 10s].
func (s *server) writeTaskErr(w http.ResponseWriter, err error) {
	se := shedOf(err)
	if se == nil {
		writeErr(w, errStatus(err), "%v", err)
		return
	}
	hint := max(time.Second, se.retryAfter, time.Duration(s.eng.Stats().Queued)*500*time.Millisecond)
	hint = min(hint, 10*time.Second)
	s.shedTotal.With(se.reason).Inc()
	obs.MarkShed(w, se.reason)
	body := apiError{Error: se.msg, Reason: se.reason, RetryAfterMs: hint.Milliseconds()}
	if se.reason == shedRecovering {
		body.Phase = "recovering" // the field /readyz reports during replay
	}
	w.Header().Set("Retry-After", retryAfterSeconds(hint))
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// retryAfterSeconds formats a wait as a Retry-After value: whole seconds,
// rounded up so a client never retries early, and at least 1.
func retryAfterSeconds(d time.Duration) string {
	return strconv.FormatInt(max(1, int64((d+time.Second-1)/time.Second)), 10)
}

// beginDrain flips the readiness probe to failing. main calls it the moment
// shutdown starts, so load balancers stop routing new work while /healthz
// keeps answering 200 — the process is still alive and draining.
func (s *server) beginDrain() { s.draining.Store(true) }

// handleReadyz is the readiness probe: 200 while the server accepts work,
// 503 while startup journal replay is still re-enqueuing pre-crash jobs
// ({"phase": "recovering"}), 503 once draining. Liveness (/healthz) is
// deliberately separate — a recovering or draining server is not ready, but
// it is alive.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "recovering", "phase": "recovering",
		})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// breaker opens when the p95 queue wait over a sliding window of job
// pickups crosses a threshold: under that much queueing a synchronous caller
// would mostly hold a connection open to receive an eventual timeout, so
// admit sheds it with Retry-After instead. The breaker stays open for a
// cooldown, then closes and re-measures against a fresh window.
type breaker struct {
	threshold time.Duration // <= 0 disables the breaker
	cooldown  time.Duration

	mu        sync.Mutex
	window    []time.Duration // ring of recent queue waits
	n         int             // samples in window (<= len(window))
	idx       int             // next write position
	openUntil time.Time

	trips atomic.Int64
}

// newBreaker returns a breaker that sheds for 5s per trip and judges the p95
// over the last 128 pickups.
func newBreaker(threshold time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: 5 * time.Second, window: make([]time.Duration, 128)}
}

// observe records one job pickup's queue wait and trips the breaker when the
// window's p95 crosses the threshold. The window resets on a trip so the
// post-cooldown verdict reflects post-trip traffic, not the overload that
// caused it.
func (b *breaker) observe(d time.Duration) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.window[b.idx] = d
	b.idx = (b.idx + 1) % len(b.window)
	if b.n < len(b.window) {
		b.n++
	}
	// Demand a quorum before judging: a handful of slow pickups right after
	// startup (or a reset) is not an overload signal.
	if b.n < 8 || b.n < len(b.window)/4 {
		return
	}
	if b.p95Locked() <= b.threshold {
		return
	}
	// The window resets on every unhealthy verdict — counted as a trip or
	// not — so the post-cooldown judgment only ever sees samples newer than
	// the last one, never the overload that caused it.
	b.n, b.idx = 0, 0
	now := time.Now()
	if now.Before(b.openUntil) {
		return // already open
	}
	b.openUntil = now.Add(b.cooldown)
	b.trips.Add(1)
}

// p95Locked computes the 95th-percentile queue wait of the current window.
func (b *breaker) p95Locked() time.Duration {
	samples := make([]time.Duration, b.n)
	if b.n < len(b.window) {
		copy(samples, b.window[:b.n])
	} else {
		copy(samples, b.window)
	}
	sort.Slice(samples, func(i, k int) bool { return samples[i] < samples[k] })
	return samples[(b.n-1)*95/100]
}

// remaining reports how much cooldown is left (0 when closed).
func (b *breaker) remaining(now time.Time) time.Duration {
	if b.threshold <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if rem := b.openUntil.Sub(now); rem > 0 {
		return rem
	}
	return 0
}

// state reports 1 while open, 0 while closed (the /metrics gauge).
func (b *breaker) state() float64 {
	if b.remaining(time.Now()) > 0 {
		return 1
	}
	return 0
}
