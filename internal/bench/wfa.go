package bench

import (
	"fmt"
	"io"
	"time"

	"fastlsa/internal/align"
	"fastlsa/internal/backend"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/stats"
)

// crossoverDivergences is the divergence ladder E13 sweeps: BiWFA's
// runtime grows with the square of the optimal penalty while FastLSA's
// O(mn) cost stays flat, so the ladder brackets the crossover from both
// sides.
var crossoverDivergences = []float64{0.01, 0.02, 0.05, 0.10, 0.20}

// crossoverSizes are E13's default pair lengths.
var crossoverSizes = []int{200, 1000, 2000, 4000}

// divergenceModel mutates at substitution rate d with indels at d/10 each —
// the model of every WFA ladder (E13, E15, the router tests).
func divergenceModel(d float64) seq.MutationModel {
	return seq.MutationModel{
		SubstitutionRate: d,
		InsertionRate:    d / 10,
		DeletionRate:     d / 10,
		MaxIndelRun:      4,
		IndelExtend:      0.5,
	}
}

// CrossoverPair returns the E13 ladder's DNA pair of length n at divergence
// d. The router's ladder test regenerates the committed rungs with it.
func CrossoverPair(n int, d float64) (*seq.Sequence, *seq.Sequence, error) {
	return seq.HomologousPair(n, seq.DNA, divergenceModel(d), int64(1000*d)+13)
}

// bestOf times run as the best of several repetitions: until ~250ms of
// runs have accumulated, at most 9, at least one.
func bestOf(run func() error) (time.Duration, error) {
	var best, total time.Duration
	for reps := 0; reps < 9 && total < 250*time.Millisecond; reps++ {
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		took := time.Since(start)
		total += took
		if reps == 0 || took < best {
			best = took
		}
	}
	return best, nil
}

// ExperimentWFACrossover (E13) measures the FastLSA-vs-BiWFA crossover that
// AlgoAuto's cost model routes on (docs/BACKENDS.md): DNA pairs (+5/−4)
// of each length are mutated at increasing rates and aligned by both
// backends exactly as a default request serves them — backend.Lookup
// ("fastlsa") with budget-planned parameters and Lookup("wfa"), the
// bidirectional kernel — under linear −4 and affine −6/−2 gaps. Each row
// sets the router's verdict and its two predicted costs beside the measured
// times; regret is the chosen backend's time over the faster one's. n > 0
// runs that single length instead of the default ladder.
func ExperimentWFACrossover(w io.Writer, n int) error {
	sizes := crossoverSizes
	if n > 0 {
		sizes = []int{n}
	}
	matrix := scoring.DNASimple
	t := NewTable("E13: FastLSA vs BiWFA by divergence (dna +5/-4, both backends as served)",
		"gap", "n", "divergence", "identity-est", "route", "fastlsa-ms", "wfa-ms",
		"pred-fastlsa-ms", "pred-wfa-ms", "speedup", "regret", "wfa-cells", "same-score")
	for _, gap := range []scoring.Gap{scoring.Linear(-4), scoring.Affine(-6, -2)} {
		for _, size := range sizes {
			for _, d := range crossoverDivergences {
				a, b, err := CrossoverPair(size, d)
				if err != nil {
					return err
				}
				route := backend.Decide(a, b, matrix, gap, align.Mode{}, false)
				identityCell := "n/a"
				if route.Identity > 0 {
					identityCell = fmt.Sprintf("%.3f", route.Identity)
				}
				times := map[string]time.Duration{}
				scores := map[string]int64{}
				var wfaCells int64
				for _, name := range []string{backend.NameFastLSA, backend.NameWFA} {
					bk, _ := backend.Lookup(name)
					req := backend.Request{Matrix: matrix, Gap: gap, Planned: name == backend.NameFastLSA}
					times[name], err = bestOf(func() error {
						req.Counters = &stats.Counters{}
						res, err := bk.Align(a, b, req)
						scores[name] = res.Score
						return err
					})
					if err != nil {
						return fmt.Errorf("%s n=%d d=%g %s: %w", gapName(gap), size, d, name, err)
					}
					if name == backend.NameWFA {
						wfaCells = req.Counters.Cells.Load()
					}
				}
				tf, tw := times[backend.NameFastLSA], times[backend.NameWFA]
				chosen := times[route.Backend]
				t.AddRow(gapName(gap), size, d, identityCell, route.Backend,
					ms(tf), ms(tw), ms(route.PredictedFastLSA), ms(route.PredictedWFA),
					float64(tf)/float64(tw), float64(chosen)/float64(min(tf, tw)),
					wfaCells, scores[backend.NameFastLSA] == scores[backend.NameWFA])
			}
		}
	}
	t.AddNote("times: best of up to 9 runs; fastlsa is planned with the default worker count (GOMAXPROCS), wfa runs single-threaded")
	t.AddNote("pred-*-ms: the cost model's predicted times (backend.Decide); route goes to the smaller prediction")
	t.AddNote("speedup: fastlsa-ms / wfa-ms (>1 means BiWFA wins); regret: routed backend's time / faster backend's time")
	t.AddNote("wfa-cells: cells BiWFA computed, Hirschberg fallbacks on gap-straddling splits included; FastLSA computes ~m*n cells at every divergence")
	return t.Fprint(w)
}

func gapName(g scoring.Gap) string {
	if g.IsLinear() {
		return fmt.Sprintf("linear%d", g.Extend)
	}
	return fmt.Sprintf("affine%d/%d", g.Open, g.Extend)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// biwfaDivergences is the low-divergence band E15 sweeps — the regime the
// router actually sends to the WFA backend, where the unidirectional
// kernel's retained O(s²) history is largest relative to the work done.
var biwfaDivergences = []float64{0.01, 0.02, 0.05}

// ExperimentBiWFA (E15) measures what the bidirectional mode buys: both WFA
// kernels aligned under per-run budgets whose high-water marks expose peak
// retained entries. Unidirectional WFA keeps every wavefront for the
// backtrace — O(s²) entries for optimal penalty s — while BiWFA keeps only a
// bounded window per direction, O(s) — so the peak ratio should grow with
// divergence and clear 10x across the band. FastLSA re-aligns each pair as
// the score oracle.
func ExperimentBiWFA(w io.Writer, n int) error {
	if n == 0 {
		n = 3000
	}
	matrix := scoring.DNASimple
	gap := scoring.Linear(-4)
	t := NewTable(fmt.Sprintf("E15: WFA vs BiWFA peak memory by divergence (dna n=%d, +5/-4, gap -4)", n),
		"divergence", "wfa-ms", "biwfa-ms", "wfa-peak", "biwfa-peak", "mem-ratio", "same-score")
	// Roomy enough that no run degrades or falls back: the comparison is
	// about high-water marks, not budget pressure.
	const roomy = int64(1) << 32
	for _, d := range biwfaDivergences {
		a, b, err := seq.HomologousPair(n, seq.DNA, divergenceModel(d), int64(1000*d)+13)
		if err != nil {
			return err
		}
		mf := Run(a, b, matrix, Config{Engine: EngineFastLSA, Gap: gap})
		if mf.Err != nil {
			return mf.Err
		}
		mw := Run(a, b, matrix, Config{Engine: EngineWFA, Gap: gap, Budget: roomy})
		if mw.Err != nil {
			return mw.Err
		}
		mb := Run(a, b, matrix, Config{Engine: EngineBiWFA, Gap: gap, Budget: roomy})
		if mb.Err != nil {
			return mb.Err
		}
		ratio := 0.0
		if mb.PeakMem > 0 {
			ratio = float64(mw.PeakMem) / float64(mb.PeakMem)
		}
		same := mf.Score == mw.Score && mw.Score == mb.Score
		t.AddRow(d,
			float64(mw.Duration.Microseconds())/1000,
			float64(mb.Duration.Microseconds())/1000,
			mw.PeakMem, mb.PeakMem, ratio, same)
	}
	t.AddNote("peaks: budget high-water marks in 8-byte entries (reversed-residue scratch excluded, as in hirschberg)")
	t.AddNote("mem-ratio: wfa-peak / biwfa-peak — the linear-space win the wfa backend's LinearSpace capability claims")
	t.AddNote("same-score: both kernels match the FastLSA score exactly")
	return t.Fprint(w)
}
