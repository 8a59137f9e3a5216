package backend

import (
	"math"
	"time"

	"fastlsa/internal/align"
	"fastlsa/internal/index"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/wfa"
)

// Routing reasons, surfaced through Options.Route, the backend.route trace
// span and the fastlsa_backend_total{backend,reason} metric.
const (
	// ReasonExplicit: the caller forced a backend (Algorithm != AlgoAuto).
	ReasonExplicit = "explicit"
	// ReasonLowDivergence: the cost model predicted BiWFA cheaper than
	// FastLSA for the estimated divergence.
	ReasonLowDivergence = "low-divergence"
	// ReasonHighDivergence: the cost model predicted FastLSA cheaper than
	// (or as cheap as) BiWFA for the estimated divergence.
	ReasonHighDivergence = "high-divergence"
	// ReasonIncompatibleScoring: the matrix or gap model has no exact WFA
	// penalty equivalent (wfa.FromScoring).
	ReasonIncompatibleScoring = "incompatible-scoring"
	// ReasonEndsFree: the request asked for an ends-free mode, which only
	// FastLSA serves under auto.
	ReasonEndsFree = "ends-free"
	// ReasonExplicitParams: the caller pinned FastLSA parameters (K or
	// BaseCells), which only make sense on the FastLSA backend.
	ReasonExplicitParams = "explicit-params"
	// ReasonSmallInput: the pair is too short for routing to matter (or for
	// the q-gram estimate to be meaningful).
	ReasonSmallInput = "small-input"
	// ReasonNoEstimate: the divergence could not be estimated, so routing
	// falls back to the engine that is never catastrophically wrong.
	ReasonNoEstimate = "no-estimate"
	// ReasonBudgetFallback: an auto-routed WFA run outgrew the memory
	// budget mid-flight and was rerun on budget-planned FastLSA.
	ReasonBudgetFallback = "budget-fallback"
)

// MinRouteLen is the per-sequence length floor for WFA routing: below it a
// full DP is microseconds anyway and the q-gram estimate has too few grams
// to mean anything.
const MinRouteLen = 64

// Cost-model constants, fitted on E13 re-runs (BENCH_E13_WFA.json: both
// backends as served, DNA n = 200–4000, linear −4 and affine −6/−2, 1–20%
// divergence, 2 vCPUs). They are times on that host; only their ratios
// decide a route.
const (
	// fastlsaLinearNsPerCell and fastlsaAffineNsPerCell price one cell of
	// budget-planned FastLSA at the default worker count, recomputation
	// (Theorems 1–2) included, under the one-plane linear and the
	// three-plane affine kernel; fastlsaFixedNs is its per-run setup.
	// Least-squares fit (in log time) to every rung's FastLSA time.
	fastlsaLinearNsPerCell = 0.96
	fastlsaAffineNsPerCell = 1.6
	fastlsaFixedNs         = 100e3
	// wfaNsPerCell prices one predicted BiWFA wavefront cell. It is fitted
	// to the verdicts rather than the times: the geometric middle of the
	// range (101–148 ns) over which every rung of five re-runs where one
	// backend is ≥2× faster routes to that backend, and a 2 kbp pair at 1%
	// substitutions (the TestAutoRouting anchor, estimate 0.984) still
	// routes to BiWFA. Every rung's regret in that range is ≤ 1.6.
	// Far from the crossover BiWFA runs at 50–100 ns per predicted cell;
	// near it, Hirschberg fallbacks on gap-straddling splits cost 2–5×
	// more, and that is the band where the price decides.
	wfaNsPerCell = 120.0
)

// Route is one routing decision.
type Route struct {
	// Backend is the canonical name of the chosen backend.
	Backend string
	// Reason is one of the Reason* constants.
	Reason string
	// Identity is the q-gram identity estimate that drove the decision
	// (0 when no estimate was made).
	Identity float64
	// PredictedFastLSA and PredictedWFA are the cost model's predicted run
	// times of the two candidates (0 when no prediction was made): the
	// route went to the cheaper one.
	PredictedFastLSA, PredictedWFA time.Duration
}

// Decide picks the backend for an AlgoAuto request: WFA for long,
// WFA-compatible global pairs whose predicted BiWFA cost undercuts
// FastLSA's; budget-planned FastLSA for everything else. explicitParams
// reports whether the caller pinned K or BaseCells (FastLSA parameters,
// which force the FastLSA backend).
func Decide(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, mode align.Mode, explicitParams bool) Route {
	if !mode.IsGlobal() {
		return Route{Backend: NameFastLSA, Reason: ReasonEndsFree}
	}
	if explicitParams {
		return Route{Backend: NameFastLSA, Reason: ReasonExplicitParams}
	}
	if a == nil || b == nil || a.Len() < MinRouteLen || b.Len() < MinRouteLen {
		return Route{Backend: NameFastLSA, Reason: ReasonSmallInput}
	}
	pen, err := wfa.FromScoring(m, a.Alphabet, gap)
	if err != nil {
		return Route{Backend: NameFastLSA, Reason: ReasonIncompatibleScoring}
	}
	identity, ok := index.EstimateIdentity(a, b, 0)
	if !ok {
		return Route{Backend: NameFastLSA, Reason: ReasonNoEstimate}
	}
	r := Route{Backend: NameFastLSA, Reason: ReasonHighDivergence, Identity: identity}
	r.PredictedFastLSA, r.PredictedWFA = predictCosts(a.Len(), b.Len(), identity, pen)
	if r.PredictedWFA < r.PredictedFastLSA {
		r.Backend, r.Reason = NameWFA, ReasonLowDivergence
	}
	return r
}

// predictCosts is the router's cost model for an m×n pair of estimated
// identity under WFA penalties pen.
//
// FastLSA computes ~m·n cells whatever the divergence; its recomputation
// is bounded by a constant factor (Theorems 1–2), folded into the per-cell
// price of the gap model's kernel, plus a fixed setup cost.
//
// BiWFA's work is the sum of its wavefront widths. At penalty s the fronts
// span ~2s/e diagonals (e = pen.GapExtend), and only penalties that are
// multiples of g = gcd(x, o, e) hold any cell, so reaching the optimum S
// costs ~S²/(g·e) cells. S is predicted from D̂ = (1−identity)·(m+n)/2
// edits priced at the mismatch penalty x, and never below the gap the
// length difference forces.
func predictCosts(m, n int, identity float64, pen wfa.Penalties) (fastlsa, wfaCost time.Duration) {
	perCell := fastlsaLinearNsPerCell
	if pen.GapOpen != 0 {
		perCell = fastlsaAffineNsPerCell
	}
	fastlsa = nanos(fastlsaFixedNs + perCell*float64(m)*float64(n))

	edits := max(1-identity, 0) * float64(m+n) / 2
	s := edits * float64(pen.Mismatch)
	if d := m - n; d != 0 {
		s = max(s, float64(pen.GapOpen+pen.GapExtend*max(d, -d)))
	}
	g := gcd(gcd(pen.Mismatch, pen.GapOpen), pen.GapExtend)
	wfaCost = nanos(wfaNsPerCell * s * s / float64(g*pen.GapExtend))
	return fastlsa, wfaCost
}

// nanos converts a predicted time in nanoseconds to a Duration, saturating
// where chromosome-scale inputs overflow int64.
func nanos(ns float64) time.Duration {
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	return time.Duration(ns)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
