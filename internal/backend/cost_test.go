package backend

import (
	"math"
	"testing"

	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/wfa"
)

// TestPredictCostsSaturates checks the cost model at chromosome scale: a
// divergent pair whose BiWFA prediction overflows int64 nanoseconds must
// saturate and stay on FastLSA, not wrap negative and win.
func TestPredictCostsSaturates(t *testing.T) {
	pen, err := wfa.FromScoring(scoring.DNASimple, seq.DNA, scoring.Linear(-4))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 28
	fastlsa, wfaCost := predictCosts(n, n, 0.5, pen)
	if wfaCost != math.MaxInt64 {
		t.Errorf("wfa prediction %v, want the saturated maximum", wfaCost)
	}
	if fastlsa <= 0 || fastlsa >= wfaCost {
		t.Errorf("fastlsa prediction %v not below the wfa prediction %v", fastlsa, wfaCost)
	}
}
