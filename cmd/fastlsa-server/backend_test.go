package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fastlsa/internal/seq"
)

// backendPair produces a homologous DNA pair at the given substitution rate,
// serialised for a JSON request body.
func backendPair(t *testing.T, n int, sub float64, salt int64) (string, string) {
	t.Helper()
	model := seq.MutationModel{
		SubstitutionRate: sub,
		InsertionRate:    sub / 10,
		DeletionRate:     sub / 10,
		MaxIndelRun:      4,
		IndelExtend:      0.5,
	}
	a, b, err := seq.HomologousPair(n, seq.DNA, model, salt)
	if err != nil {
		t.Fatal(err)
	}
	return a.String(), b.String()
}

// TestAlignBackendRouting drives POST /v1/align through the auto router and
// checks the response reports which backend served it: a high-identity DNA
// pair lands on the WFA kernel, a divergent one stays on FastLSA, and an
// explicit algorithm override is honoured as-is.
func TestAlignBackendRouting(t *testing.T) {
	srv := testServer(t)

	similarA, similarB := backendPair(t, 1500, 0.01, 41)
	resp, out := postJSON(t, srv.URL+"/v1/align",
		fmt.Sprintf(`{"a":%q,"b":%q,"matrix":"dna","gap":{"extend":-4}}`, similarA, similarB))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["backend"] != "wfa" || out["routeReason"] != "low-divergence" {
		t.Fatalf("high-identity pair served by %v (%v), want wfa (low-divergence)",
			out["backend"], out["routeReason"])
	}
	if !predictedCheaper(out, "routePredictedWfaMs", "routePredictedFastlsaMs") {
		t.Fatalf("wfa verdict without a cheaper wfa prediction: %v", out)
	}

	divergentA, divergentB := backendPair(t, 1500, 0.30, 42)
	resp, out = postJSON(t, srv.URL+"/v1/align",
		fmt.Sprintf(`{"a":%q,"b":%q,"matrix":"dna","gap":{"extend":-4}}`, divergentA, divergentB))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["backend"] != "fastlsa" || out["routeReason"] != "high-divergence" {
		t.Fatalf("divergent pair served by %v (%v), want fastlsa (high-divergence)",
			out["backend"], out["routeReason"])
	}
	if !predictedCheaper(out, "routePredictedFastlsaMs", "routePredictedWfaMs") {
		t.Fatalf("fastlsa verdict without a cheaper fastlsa prediction: %v", out)
	}

	resp, out = postJSON(t, srv.URL+"/v1/align",
		fmt.Sprintf(`{"a":%q,"b":%q,"matrix":"dna","gap":{"extend":-4},"algorithm":"hirschberg"}`,
			similarA, similarB))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["backend"] != "hirschberg" || out["routeReason"] != "explicit" {
		t.Fatalf("forced algorithm served by %v (%v), want hirschberg (explicit)",
			out["backend"], out["routeReason"])
	}

	// Explicit WFA against a uniform matrix works end to end.
	resp, out = postJSON(t, srv.URL+"/v1/align",
		fmt.Sprintf(`{"a":%q,"b":%q,"matrix":"dna","gap":{"extend":-4},"algorithm":"wfa"}`,
			divergentA, divergentB))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit wfa status %d: %v", resp.StatusCode, out)
	}
	if out["backend"] != "wfa" || out["routeReason"] != "explicit" {
		t.Fatalf("explicit wfa served by %v (%v)", out["backend"], out["routeReason"])
	}

	// Explicit WFA with an incompatible (non-uniform) matrix is a 422, the
	// same class as other invalid-input rejections.
	resp, out = postJSON(t, srv.URL+"/v1/align",
		`{"a":"TDVLKAD","b":"TLDKLLKD","matrix":"blosum62","gap":{"extend":-10},"algorithm":"wfa"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("wfa+blosum62 status %d (want 422): %v", resp.StatusCode, out)
	}

	// The routing counter is on /metrics with backend and reason labels.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		`fastlsa_backend_total{backend="wfa",reason="low-divergence"} 1`,
		`fastlsa_backend_total{backend="fastlsa",reason="high-divergence"} 1`,
		`fastlsa_backend_total{backend="hirschberg",reason="explicit"} 1`,
		`fastlsa_backend_total{backend="wfa",reason="explicit"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestJobBackendRouting checks async job views inherit the backend fields —
// jobs reuse the same alignTask, so the result body must carry them too.
func TestJobBackendRouting(t *testing.T) {
	srv := testServer(t)
	a, b := backendPair(t, 1500, 0.01, 43)
	resp, out := postJSON(t, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"type":"align","align":{"a":%q,"b":%q,"matrix":"dna","gap":{"extend":-4}}}`, a, b))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, out)
	}
	done := pollJob(t, srv.URL+"/v1/jobs/"+out["id"].(string), "succeeded", 5*time.Second)
	result, _ := done["result"].(map[string]any)
	if result == nil {
		t.Fatalf("no result: %v", done)
	}
	if result["backend"] != "wfa" || result["routeReason"] != "low-divergence" {
		t.Fatalf("job result served by %v (%v), want wfa (low-divergence)",
			result["backend"], result["routeReason"])
	}
	if !predictedCheaper(result, "routePredictedWfaMs", "routePredictedFastlsaMs") {
		t.Fatalf("job result lacks the route's cost predictions: %v", result)
	}
}

// predictedCheaper reports whether the response body carries both route
// predictions with the one named cheap below the other.
func predictedCheaper(body map[string]any, cheap, dear string) bool {
	c, ok1 := body[cheap].(float64)
	d, ok2 := body[dear].(float64)
	return ok1 && ok2 && c > 0 && c < d
}
