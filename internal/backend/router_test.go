package backend_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"fastlsa/internal/align"
	"fastlsa/internal/backend"
	"fastlsa/internal/bench"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

func routerModel(d float64) seq.MutationModel {
	return seq.MutationModel{
		SubstitutionRate: d,
		InsertionRate:    d / 10,
		DeletionRate:     d / 10,
		MaxIndelRun:      4,
		IndelExtend:      0.5,
	}
}

// TestDecide pins every routing rule (docs/BACKENDS.md), including the
// acceptance anchors: a ~99%-identity DNA pair routes to WFA, while a
// ≤70%-identity pair and an ordinary DefaultHomology pair route to FastLSA.
func TestDecide(t *testing.T) {
	dna := scoring.DNASimple
	gap := scoring.Linear(-4)
	similarA, similarB, err := seq.HomologousPair(2000, seq.DNA, routerModel(0.01), 21)
	if err != nil {
		t.Fatal(err)
	}
	homologA, homologB, err := seq.HomologousPair(2000, seq.DNA, seq.DefaultHomology, 25)
	if err != nil {
		t.Fatal(err)
	}
	divergent70A, divergent70B, err := seq.HomologousPair(2000, seq.DNA, routerModel(0.30), 22)
	if err != nil {
		t.Fatal(err)
	}
	protA, protB, err := seq.HomologousPair(2000, seq.Protein, routerModel(0.03), 23)
	if err != nil {
		t.Fatal(err)
	}
	short := seq.Random("s", 32, seq.DNA, 24)

	tests := []struct {
		name           string
		a, b           *seq.Sequence
		matrix         *scoring.Matrix
		gap            scoring.Gap
		mode           align.Mode
		explicitParams bool
		wantBackend    string
		wantReason     string
	}{
		{
			name: "low-divergence-to-wfa", a: similarA, b: similarB,
			matrix: dna, gap: gap,
			wantBackend: backend.NameWFA, wantReason: backend.ReasonLowDivergence,
		},
		{
			name: "low-divergence-affine-to-wfa", a: similarA, b: similarB,
			matrix: dna, gap: scoring.Affine(-6, -2),
			wantBackend: backend.NameWFA, wantReason: backend.ReasonLowDivergence,
		},
		{
			name: "high-divergence-to-fastlsa", a: divergent70A, b: divergent70B,
			matrix: dna, gap: gap,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonHighDivergence,
		},
		{
			name: "default-homology-to-fastlsa", a: homologA, b: homologB,
			matrix: dna, gap: gap,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonHighDivergence,
		},
		{
			name: "ends-free-to-fastlsa", a: similarA, b: similarB,
			matrix: dna, gap: gap, mode: align.Overlap,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonEndsFree,
		},
		{
			name: "explicit-params-to-fastlsa", a: similarA, b: similarB,
			matrix: dna, gap: gap, explicitParams: true,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonExplicitParams,
		},
		{
			name: "non-uniform-matrix-to-fastlsa", a: protA, b: protB,
			matrix: scoring.BLOSUM62, gap: gap,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonIncompatibleScoring,
		},
		{
			name: "short-input-to-fastlsa", a: short, b: short,
			matrix: dna, gap: gap,
			wantBackend: backend.NameFastLSA, wantReason: backend.ReasonSmallInput,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := backend.Decide(tc.a, tc.b, tc.matrix, tc.gap, tc.mode, tc.explicitParams)
			if r.Backend != tc.wantBackend || r.Reason != tc.wantReason {
				t.Fatalf("routed to %s (%s), want %s (%s); identity estimate %.3f",
					r.Backend, r.Reason, tc.wantBackend, tc.wantReason, r.Identity)
			}
			switch r.Reason {
			case backend.ReasonLowDivergence:
				if r.PredictedWFA <= 0 || r.PredictedWFA >= r.PredictedFastLSA {
					t.Fatalf("WFA route without a cheaper WFA prediction: %+v", r)
				}
			case backend.ReasonHighDivergence:
				if r.PredictedFastLSA <= 0 || r.PredictedFastLSA > r.PredictedWFA {
					t.Fatalf("divergence route to FastLSA without a cheaper FastLSA prediction: %+v", r)
				}
			}
			if _, ok := backend.Lookup(r.Backend); !ok {
				t.Fatalf("routed to unregistered backend %q", r.Backend)
			}
		})
	}
}

// e13Rung is one row of the committed E13 ledger (BENCH_E13_WFA.json).
type e13Rung struct {
	gap             string
	n               int
	divergence      float64
	route           string
	speedup, regret float64
}

// loadE13 reads the committed E13 rungs.
func loadE13(t *testing.T) []e13Rung {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_E13_WFA.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiments []struct {
			ID     string `json:"id"`
			Tables []struct {
				Headers []string   `json:"headers"`
				Rows    [][]string `json:"rows"`
			} `json:"tables"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "E13" || len(doc.Experiments[0].Tables) != 1 {
		t.Fatal("BENCH_E13_WFA.json does not hold exactly one E13 table")
	}
	table := doc.Experiments[0].Tables[0]
	col := map[string]int{}
	for i, h := range table.Headers {
		col[h] = i
	}
	num := func(row []string, name string) float64 {
		v, err := strconv.ParseFloat(row[col[name]], 64)
		if err != nil {
			t.Fatalf("E13 column %s: %v", name, err)
		}
		return v
	}
	rungs := make([]e13Rung, len(table.Rows))
	for i, row := range table.Rows {
		rungs[i] = e13Rung{
			gap: row[col["gap"]], n: int(num(row, "n")), divergence: num(row, "divergence"),
			route: row[col["route"]], speedup: num(row, "speedup"), regret: num(row, "regret"),
		}
	}
	return rungs
}

// TestRouterLadder pins Decide against the committed E13 ledger: DNA pairs
// under linear −4 and affine −6/−2, n ∈ {200, 1000, 2000, 4000}, divergence
// 1–20%. On every rung where one backend measured ≥2× faster, Decide must
// pick it; no rung may cost more than 2× the faster backend; and today's
// verdicts must equal the ledger's, so the cost-model constants cannot
// change without a re-run of E13.
func TestRouterLadder(t *testing.T) {
	gaps := map[string]scoring.Gap{"linear-4": scoring.Linear(-4), "affine-6/-2": scoring.Affine(-6, -2)}
	rungs := loadE13(t)
	if want := len(gaps) * 4 * 5; len(rungs) != want {
		t.Fatalf("E13 ledger has %d rungs, want the full %d-rung ladder", len(rungs), want)
	}
	for _, r := range rungs {
		name := fmt.Sprintf("%s/n=%d/d=%g", r.gap, r.n, r.divergence)
		t.Run(name, func(t *testing.T) {
			gap, ok := gaps[r.gap]
			if !ok {
				t.Fatalf("unknown gap %q", r.gap)
			}
			a, b, err := bench.CrossoverPair(r.n, r.divergence)
			if err != nil {
				t.Fatal(err)
			}
			got := backend.Decide(a, b, scoring.DNASimple, gap, align.Mode{}, false)
			if got.Backend != r.route {
				t.Fatalf("Decide picks %s (%+v), the ledger recorded %s: re-run E13 after changing the cost model", got.Backend, got, r.route)
			}
			switch {
			case r.speedup >= 2 && got.Backend != backend.NameWFA:
				t.Errorf("BiWFA measured %.3g× faster, Decide picks %s", r.speedup, got.Backend)
			case r.speedup <= 0.5 && got.Backend != backend.NameFastLSA:
				t.Errorf("FastLSA measured %.3g× faster, Decide picks %s", 1/r.speedup, got.Backend)
			}
			if r.regret > 2 {
				t.Errorf("regret %.3g > 2", r.regret)
			}
		})
	}

	// An 8 kbp pair at ~1% divergence, like the dna-near workload: BiWFA's
	// home ground.
	a, b, err := seq.HomologousPair(8000, seq.DNA, seq.MutationModel{
		SubstitutionRate: 0.008, InsertionRate: 0.001, DeletionRate: 0.001, MaxIndelRun: 4, IndelExtend: 0.5,
	}, 31)
	if err != nil {
		t.Fatal(err)
	}
	if got := backend.Decide(a, b, scoring.DNASimple, scoring.Linear(-4), align.Mode{}, false); got.Backend != backend.NameWFA {
		t.Errorf("n=8000 ~1%% pair routed to %+v, want wfa", got)
	}
}
