//go:build go1.24

package fastlsa_test

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"fastlsa"
)

// retainedInputs holds weak pointers to what one finished job must stop
// pinning once its result is evicted.
type retainedInputs struct {
	job      *fastlsa.Job
	rec      weak.Pointer[fastlsa.Recorder]
	seqA     weak.Pointer[fastlsa.Sequence]
	seqB     weak.Pointer[fastlsa.Sequence]
	recorded bool
}

// submitAndWait runs one synchronous alignment job on fresh inputs and
// returns weak handles to them; no strong reference outlives the call
// except the ones the engine keeps.
func submitAndWait(t *testing.T, en *fastlsa.Engine, seed int64) retainedInputs {
	t.Helper()
	a, b, err := fastlsa.HomologousPair(300, fastlsa.DNA, fastlsa.DefaultHomology, seed)
	if err != nil {
		t.Fatal(err)
	}
	rec := fastlsa.NewRecorder(0)
	job, err := en.SubmitAlign(a, b, fastlsa.Options{Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4)},
		fastlsa.JobOptions{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return retainedInputs{
		job: job, rec: weak.Make(rec), seqA: weak.Make(a), seqB: weak.Make(b),
		recorded: rec.Len() > 0,
	}
}

// TestEngineReleasesFinishedJobInputs is the retention regression test: a
// finished job beyond MaxRetainedResults keeps its metadata queryable but
// must let its flight recorder and input sequences be collected. The task
// closure captures both, so a job that kept its task after finishing pinned
// them for as long as it stayed retained.
func TestEngineReleasesFinishedJobInputs(t *testing.T) {
	const keepResults, jobs = 4, 12
	en := fastlsa.NewEngine(fastlsa.EngineConfig{Workers: 1, MaxRetainedResults: keepResults})
	defer en.Shutdown(context.Background())

	runs := make([]retainedInputs, jobs)
	for i := range runs {
		runs[i] = submitAndWait(t, en, int64(100+i))
	}
	if !runs[0].recorded {
		t.Fatal("the recorder saw no events; the test would prove nothing")
	}
	runtime.GC()
	runtime.GC()

	for i, r := range runs[:jobs-keepResults] {
		if r.rec.Value() != nil {
			t.Errorf("evicted job %d still pins its flight recorder", i)
		}
		if r.seqA.Value() != nil || r.seqB.Value() != nil {
			t.Errorf("evicted job %d still pins its input sequences", i)
		}
		info := r.job.Info()
		if info.State != fastlsa.JobSucceeded || info.Finished.IsZero() {
			t.Errorf("evicted job %d info = %+v, want a succeeded job", i, info)
		}
		if got, err := en.Job(info.ID); err != nil || got != r.job {
			t.Errorf("evicted job %d not queryable by id: %v", i, err)
		}
	}
	// The newest jobs keep their results, and with them their inputs.
	if last := runs[jobs-1]; last.seqA.Value() == nil {
		t.Error("a job inside MaxRetainedResults lost its result's sequences")
	}
}
