package fastlsa_test

import (
	"testing"

	"fastlsa/internal/core"
	"fastlsa/internal/index"
	"fastlsa/internal/obs"
	"fastlsa/internal/scoring"
	"fastlsa/internal/search"
	"fastlsa/internal/seq"
	"fastlsa/internal/testutil"
	"fastlsa/internal/wfa"
)

// TestPhaseSinksAgree pins that the one phase bracket (obs.Run.Phase) keeps
// the three observation sinks in step on every instrumented solver: with a
// trace, a flight recorder and pprof labels all on, each (category, name)
// that has EvPhase events has exactly as many spans, and obs.PhaseTimes
// holds a CPU-attribution entry for it.
func TestPhaseSinksAgree(t *testing.T) {
	obs.SetProfLabels(true)
	defer obs.SetProfLabels(false)

	m, gap := scoring.DNASimple, scoring.Linear(-4)
	a, b := testutil.HomologousPair(600, seq.DNA, 5)
	db := []*seq.Sequence{seq.Random("bg0", 300, seq.DNA, 1), b, seq.Random("bg1", 250, seq.DNA, 2)}
	ix, err := index.Build(db, 8)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		run  func(obs.Run) error
	}{
		{"fastlsa-workers-1", func(r obs.Run) error {
			_, err := core.Align(a, b, m, gap, core.Options{K: 4, BaseCells: 256, Workers: 1, Obs: r})
			return err
		}},
		{"fastlsa-workers-2", func(r obs.Run) error {
			_, err := core.Align(a, b, m, gap, core.Options{
				K: 4, BaseCells: 256, Workers: 2, ParallelFillCells: 1, Obs: r,
			})
			return err
		}},
		{"biwfa", func(r obs.Run) error {
			_, err := wfa.BiAlign(a, b, m, gap, wfa.Options{Obs: r})
			return err
		}},
		{"search-indexed", func(r obs.Run) error {
			hits, err := search.Query(a, db, search.Options{
				Matrix: m, Gap: gap, TopK: 2, Workers: 1,
				Pairwise: core.Options{Workers: 1}, Index: ix, Obs: r,
			})
			if err == nil && len(hits) == 0 {
				t.Error("indexed search found no hits: reconstruct phase not exercised")
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := obs.Run{Trace: obs.NewTrace(0), Recorder: obs.NewRecorder(1 << 14)}
			if err := tc.run(run); err != nil {
				t.Fatal(err)
			}
			spans := map[[2]string]int{}
			for _, sp := range run.Trace.Spans() {
				spans[[2]string{sp.Cat, sp.Name}]++
			}
			events := map[[2]string]int{}
			for _, ev := range run.Recorder.Snapshot().Events {
				if ev.Kind == obs.EvPhase {
					events[[2]string{ev.Extra, ev.Detail}]++
				}
			}
			if len(events) == 0 {
				t.Fatal("no EvPhase events recorded")
			}
			times := obs.PhaseTimes()
			for key, n := range events {
				if spans[key] != n {
					t.Errorf("%s/%s: %d EvPhase events but %d spans", key[0], key[1], n, spans[key])
				}
				if _, ok := times[key]; !ok {
					t.Errorf("%s/%s: no obs.PhaseTimes entry", key[0], key[1])
				}
			}
		})
	}
}
