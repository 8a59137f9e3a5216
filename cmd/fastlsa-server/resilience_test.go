package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fastlsa"
	"fastlsa/internal/fault"
)

// TestAdmissionReasons pins the one shed path: for each reason, every
// endpoint it applies to answers 503 with a Retry-After header, the reason
// and a retryAfterMs hint in the body, and one more
// fastlsa_shed_total{reason} sample; the endpoints a reason exempts answer
// normally.
func TestAdmissionReasons(t *testing.T) {
	corpus, query, _ := testCorpus(t, 20)
	type request struct {
		method, path, body string
		ok                 int // status when not shed
	}
	var (
		align  = request{"POST", "/v1/align", alignBody, http.StatusOK}
		msa    = request{"POST", "/v1/msa", `{"sequences":[{"letters":"ACGTACGT"},{"letters":"ACGAACGT"}],"matrix":"dna","gap":{"extend":-4}}`, http.StatusOK}
		search = request{"POST", "/v1/search", `{"query":"ACGTACGT","database":[{"letters":"ACGTACGA"}],"matrix":"dna","gap":{"extend":-4}}`, http.StatusOK}
		stream = request{"GET", "/v1/search?topK=1&q=" + query.String(), "", http.StatusOK}
		job    = request{"POST", "/v1/jobs", paperJob, http.StatusAccepted}
		batch  = request{"POST", "/v1/batch", `{"matrix":"table1","gap":{"extend":-10},"pairs":[{"a":"TDVLKAD","b":"TLDKLLKD"}]}`, http.StatusOK}
	)
	syncReqs := []request{align, msa, search, stream}
	allReqs := append([]request{job, batch}, syncReqs...)

	cases := []struct {
		reason string
		cfg    serverConfig
		setup  func(t *testing.T, s *server)
		shed   []request
		exempt []request
	}{
		{shedRecovering, serverConfig{}, func(t *testing.T, s *server) {
			s.recovering.Store(true)
		}, []request{job}, append([]request{batch}, syncReqs...)},
		{shedQueueWait, serverConfig{BreakerWait: time.Millisecond}, func(t *testing.T, s *server) {
			for i := 0; i < 128; i++ {
				s.breaker.observe(time.Second)
			}
		}, syncReqs, []request{job, batch}},
		{shedErrorBurn, serverConfig{BreakerBurn: 2}, func(t *testing.T, s *server) {
			s.slos.Observe(sloErrors, true) // one error in one sample: burn 1000
		}, syncReqs, []request{job, batch}},
		{shedQueueFull, serverConfig{EngineWorkers: 1, QueueDepth: 1}, func(t *testing.T, s *server) {
			release := make(chan struct{})
			t.Cleanup(func() { close(release) })
			block := func(ctx context.Context) (any, error) {
				select {
				case <-release:
				case <-ctx.Done():
				}
				return nil, nil
			}
			// Full means one job running and one queued: a rejection while
			// the first still sits in the queue would not last.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				st := s.eng.Stats()
				if st.Running == 1 && st.Queued == 1 {
					break
				}
				if st.Running+st.Queued < 2 {
					if _, err := s.eng.SubmitFunc("block", block, fastlsa.JobOptions{}); err != nil && st.Queued == 0 {
						t.Fatalf("empty queue rejected a job: %v", err)
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("queue never saturated: %+v", st)
				}
			}
		}, allReqs, nil},
		{shedDraining, serverConfig{}, func(t *testing.T, s *server) {
			if err := s.eng.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}, allReqs, nil},
	}
	for _, tc := range cases {
		t.Run(tc.reason, func(t *testing.T) {
			cfg := tc.cfg
			cfg.DefaultWorkers, cfg.Corpus = 1, corpus
			app := newServer(cfg)
			srv := httptest.NewServer(app)
			defer srv.Close()
			tc.setup(t, app)

			series := `fastlsa_shed_total{reason="` + tc.reason + `"}`
			for _, rq := range tc.shed {
				before := scrapeMetrics(t, srv.URL)[series]
				resp, out := doJSON(t, rq.method, srv.URL+rq.path, rq.body)
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("%s %s: status %d, want 503 (%v)", rq.method, rq.path, resp.StatusCode, out)
				}
				if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
					t.Errorf("%s %s: Retry-After %q, want whole seconds >= 1", rq.method, rq.path, resp.Header.Get("Retry-After"))
				}
				if out["reason"] != tc.reason {
					t.Errorf("%s %s: reason %v, want %s", rq.method, rq.path, out["reason"], tc.reason)
				}
				if ms, _ := out["retryAfterMs"].(float64); ms < 1000 {
					t.Errorf("%s %s: retryAfterMs %v, want >= 1000", rq.method, rq.path, out["retryAfterMs"])
				}
				if tc.reason == shedRecovering && out["phase"] != "recovering" {
					t.Errorf("%s %s: phase %v, want recovering", rq.method, rq.path, out["phase"])
				}
				if got := scrapeMetrics(t, srv.URL)[series]; got != before+1 {
					t.Errorf("%s %s: %s %v -> %v, want +1", rq.method, rq.path, series, before, got)
				}
			}
			for _, rq := range tc.exempt {
				if resp, out := doJSON(t, rq.method, srv.URL+rq.path, rq.body); resp.StatusCode != rq.ok {
					t.Errorf("%s %s: status %d under %s, want %d (%v)", rq.method, rq.path, resp.StatusCode, tc.reason, rq.ok, out)
				}
			}
		})
	}
}

// TestRetryAfterOnQueueFull saturates a tiny engine and requires every
// queue-full 503 to carry both the Retry-After header and the retryAfterMs
// JSON hint.
func TestRetryAfterOnQueueFull(t *testing.T) {
	srv := httptest.NewServer(newServer(serverConfig{
		DefaultWorkers: 1, EngineWorkers: 1, QueueDepth: 1,
	}))
	defer srv.Close()

	sawHint := false
	for i := 0; i < 8; i++ {
		resp, out := postJSON(t, srv.URL+"/v1/jobs", slowAlignJob(6000))
		if resp.StatusCode != http.StatusServiceUnavailable {
			continue
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatalf("503 without Retry-After header: %v", out)
		}
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("Retry-After %q is not a positive integer of seconds", ra)
		}
		ms, ok := out["retryAfterMs"].(float64)
		if !ok || ms < 1 {
			t.Fatalf("503 body lacks a positive retryAfterMs: %v", out)
		}
		sawHint = true
	}
	if !sawHint {
		t.Fatal("queue never saturated; no 503 observed")
	}
}

// TestReadyzFlipsDuringDrain: /readyz fails once the drain begins while
// /healthz keeps reporting live.
func TestReadyzFlipsDuringDrain(t *testing.T) {
	app := newServer(serverConfig{DefaultWorkers: 1})
	srv := httptest.NewServer(app)
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", got)
	}
	app.beginDrain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200 (liveness is separate)", got)
	}
}

// TestBreakerTripAndRecovery unit-tests the queue-wait breaker: a window of
// unhealthy p95 queue waits trips it, sync requests shed while open, and it
// closes after the cooldown.
func TestBreakerTripAndRecovery(t *testing.T) {
	s := newServer(serverConfig{DefaultWorkers: 1, BreakerWait: 10 * time.Millisecond})
	b := s.breaker
	b.cooldown = 80 * time.Millisecond
	b.window = make([]time.Duration, 16)
	if err := s.admit(false); err != nil {
		t.Fatalf("fresh breaker must be closed: %v", err)
	}
	for i := 0; i < 16; i++ {
		b.observe(50 * time.Millisecond)
	}
	if b.trips.Load() != 1 {
		t.Fatalf("trips = %d after unhealthy window, want 1", b.trips.Load())
	}
	err := s.admit(false)
	if se := shedOf(err); se == nil || se.reason != shedQueueWait {
		t.Fatalf("tripped breaker must shed with reason %s, got %v", shedQueueWait, err)
	}
	s.writeTaskErr(httptest.NewRecorder(), err)
	if got := s.shedTotal.With(shedQueueWait).Value(); got != 1 {
		t.Fatalf("shed = %v, want 1", got)
	}
	if b.state() != 1 {
		t.Fatalf("state = %v while open, want 1", b.state())
	}
	if rem := b.remaining(time.Now()); rem <= 0 || rem > 80*time.Millisecond {
		t.Fatalf("remaining = %v, want (0, 80ms]", rem)
	}
	// After the cooldown it closes and re-measures on a fresh window: a few
	// healthy samples must not re-trip.
	time.Sleep(100 * time.Millisecond)
	if err := s.admit(false); err != nil {
		t.Fatalf("breaker still open after cooldown: %v", err)
	}
	for i := 0; i < 16; i++ {
		b.observe(time.Millisecond)
	}
	if b.trips.Load() != 1 {
		t.Fatalf("healthy window re-tripped: trips = %d", b.trips.Load())
	}
	if b.state() != 0 {
		t.Fatalf("state = %v while closed, want 0", b.state())
	}
}

// TestBreakerDisabled: a negative threshold disables shedding entirely.
func TestBreakerDisabled(t *testing.T) {
	s := newServer(serverConfig{DefaultWorkers: 1, BreakerWait: -1})
	for i := 0; i < 200; i++ {
		s.breaker.observe(time.Hour)
	}
	if err := s.admit(false); err != nil {
		t.Fatalf("disabled breaker shed a request: %v", err)
	}
}

// TestBreakerShedsSyncRequests forces the server's breaker open and requires
// synchronous endpoints to answer 503 + Retry-After without touching the
// engine, while async job submissions still queue.
func TestBreakerShedsSyncRequests(t *testing.T) {
	app := newServer(serverConfig{DefaultWorkers: 1, BreakerWait: time.Millisecond})
	srv := httptest.NewServer(app)
	defer srv.Close()

	for i := 0; i < 128; i++ {
		app.breaker.observe(time.Second)
	}
	rejected := app.eng.Stats().Rejected

	resp, out := postJSON(t, srv.URL+"/v1/align",
		`{"a":"ACGT","b":"ACGT","matrix":"dna","gap":{"extend":-4}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sync status under open breaker = %d, want 503 (%v)", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed response lacks Retry-After: %v", out)
	}
	if out["reason"] != shedQueueWait {
		t.Fatalf("shed reason = %v, want %s", out["reason"], shedQueueWait)
	}
	if got := app.eng.Stats().Rejected; got != rejected {
		t.Fatalf("shed request reached the engine (rejected %d -> %d)", rejected, got)
	}
	if app.shedTotal.With(shedQueueWait).Value() == 0 {
		t.Fatal("shed counter did not move")
	}

	// Async submissions are not shed — their callers opted into queueing.
	jresp, jout := postJSON(t, srv.URL+"/v1/jobs", `{
		"type": "align",
		"align": {"a": "ACGT", "b": "ACGT", "matrix": "dna", "gap": {"extend": -4}}
	}`)
	if jresp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit under open breaker = %d, want 202 (%v)", jresp.StatusCode, jout)
	}
}

// TestJobRetrySurfacesAttempts arms a worker fault that fails every attempt
// and checks the whole retry story end-to-end: the job view reports
// MaxAttempts attempts, /v1/stats counts the re-queues, and /metrics exports
// them.
func TestJobRetrySurfacesAttempts(t *testing.T) {
	if err := fault.Arm("engine.worker:error", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/jobs", `{
		"type": "align",
		"retry": {"maxAttempts": 3, "backoffMs": 1},
		"align": {"a": "ACGT", "b": "ACGT", "matrix": "dna", "gap": {"extend": -4}}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	done := pollJob(t, srv.URL+"/v1/jobs/"+id, "failed", 10*time.Second)
	if got, _ := done["attempts"].(float64); got != 3 {
		t.Fatalf("attempts = %v, want 3: %v", done["attempts"], done)
	}

	sresp, stats := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", sresp.StatusCode)
	}
	if got, _ := stats["retries"].(float64); got < 2 {
		t.Fatalf("stats retries = %v, want >= 2", stats["retries"])
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, metric := range []string{
		"fastlsa_engine_retries_total",
		"fastlsa_breaker_state",
		"fastlsa_shed_total",
		"fastlsa_engine_queue_wait_seconds",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics lacks %s", metric)
		}
	}
}

// TestInjectedDecodeFault: an armed server.decode site must surface as a
// client-level 400, never a 500, and never submit a job.
func TestInjectedDecodeFault(t *testing.T) {
	if err := fault.Arm("server.decode:error", 1); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	app := newServer(serverConfig{DefaultWorkers: 1})
	srv := httptest.NewServer(app)
	defer srv.Close()

	resp, out := postJSON(t, srv.URL+"/v1/align",
		`{"a":"ACGT","b":"ACGT","matrix":"dna","gap":{"extend":-4}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status under decode fault = %d, want 400 (%v)", resp.StatusCode, out)
	}
	if got := app.eng.Stats().Submitted; got != 0 {
		t.Fatalf("decode fault leaked %d job submissions", got)
	}
}

// TestBatchRetryZeroFailedUnits is the server-side slice of the acceptance
// scenario: with a worker fault striking ~30% of attempts, a batch submitted
// with a retry policy completes with zero failed units.
func TestBatchRetryZeroFailedUnits(t *testing.T) {
	if err := fault.Arm("engine.worker:error:0.3", 7); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	defer fault.Disarm()

	srv := httptest.NewServer(newServer(serverConfig{
		DefaultWorkers: 1, EngineWorkers: 4, QueueDepth: 64,
	}))
	defer srv.Close()
	var pairs []string
	for i := 0; i < 16; i++ {
		pairs = append(pairs, `{"a":"ACGTACGTACGT","b":"ACGTTCGTACGA"}`)
	}
	resp, out := postJSON(t, srv.URL+"/v1/batch", `{
		"matrix": "dna", "gap": {"extend": -4},
		"retry": {"maxAttempts": 8, "backoffMs": 1},
		"pairs": [`+strings.Join(pairs, ",")+`]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %v", resp.StatusCode, out)
	}
	units, _ := out["units"].([]any)
	if len(units) != 16 {
		t.Fatalf("units = %d, want 16", len(units))
	}
	for i, u := range units {
		um := u.(map[string]any)
		if e, _ := um["error"].(string); e != "" {
			t.Errorf("unit %d failed despite retry: %s", i, e)
		}
	}
}
