package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockerTask returns a task that signals started (if non-nil), then blocks
// until release is closed or its context dies.
func blockerTask(started chan<- struct{}, release <-chan struct{}) Task {
	return func(ctx context.Context) (any, error) {
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-release:
			return "done", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func shutdownNow(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.Shutdown(ctx)
}

func TestSubmitRunsJob(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 8})
	defer shutdownNow(t, e)

	j, err := e.Submit(Submission{Kind: "test", Task: func(ctx context.Context) (any, error) {
		return 42, nil
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res != 42 {
		t.Fatalf("result = %v, want 42", res)
	}
	if st := j.Info().State; st != Succeeded {
		t.Fatalf("state = %v, want succeeded", st)
	}
}

func TestQueueFullRejection(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 2})
	defer shutdownNow(t, e)

	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 1)

	// Occupy the single worker...
	if _, err := e.Submit(Submission{Task: blockerTask(started, release)}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started
	// ...then fill the queue.
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(Submission{Task: blockerTask(nil, release)}); err != nil {
			t.Fatalf("Submit queued %d: %v", i, err)
		}
	}
	_, err := e.Submit(Submission{Task: blockerTask(nil, release)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity Submit error = %v, want ErrQueueFull", err)
	}
	if s := e.Stats(); s.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", s.Rejected)
	}
}

func TestPriorityOrdering(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 16})
	defer shutdownNow(t, e)

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	if _, err := e.Submit(Submission{Task: blockerTask(started, release)}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started // the worker is busy; everything below queues

	var mu sync.Mutex
	var order []string
	mk := func(name string) Task {
		return func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		}
	}
	jobs := make([]*Job, 0, 4)
	for _, sub := range []Submission{
		{Priority: 0, Task: mk("low-1")},
		{Priority: 5, Task: mk("high-1")},
		{Priority: 0, Task: mk("low-2")},
		{Priority: 5, Task: mk("high-2")},
	} {
		j, err := e.Submit(sub)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	want := []string{"high-1", "high-2", "low-1", "low-2"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v (higher priority first, FIFO among equals)", order, want)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownNow(t, e)

	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 1)
	if _, err := e.Submit(Submission{Task: blockerTask(started, release)}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started

	ran := false
	j, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) {
		ran = true
		return nil, nil
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j.Cancel()
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	if j.Info().State != Cancelled {
		t.Fatalf("state = %v, want cancelled", j.Info().State)
	}
	if ran {
		t.Fatal("cancelled queued job still executed")
	}
}

func TestCancelRunningJob(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownNow(t, e)

	started := make(chan struct{}, 1)
	j, err := e.Submit(Submission{Task: blockerTask(started, nil)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	j.Cancel()
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
	if j.Info().State != Cancelled {
		t.Fatalf("state = %v, want cancelled", j.Info().State)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownNow(t, e)

	j, err := e.Submit(Submission{Timeout: 20 * time.Millisecond, Task: blockerTask(nil, nil)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait error = %v, want context.DeadlineExceeded", err)
	}
	if j.Info().State != Cancelled {
		t.Fatalf("state = %v, want cancelled", j.Info().State)
	}
}

func TestParentContextCancelsJob(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownNow(t, e)

	parent, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	j, err := e.Submit(Submission{Parent: parent, Task: blockerTask(started, nil)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	cancel() // simulates a client disconnect
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled", err)
	}
}

func TestFailedJobState(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownNow(t, e)

	boom := errors.New("boom")
	j, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) {
		return nil, boom
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Wait error = %v, want boom", err)
	}
	if j.Info().State != Failed {
		t.Fatalf("state = %v, want failed", j.Info().State)
	}
}

func TestPanicBecomesFailure(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownNow(t, e)

	j, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) {
		panic("kaboom")
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("panicking job reported success")
	}
	if j.Info().State != Failed {
		t.Fatalf("state = %v, want failed", j.Info().State)
	}
	// The pool survived: another job still runs.
	j2, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) { return "ok", nil }})
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	if res, err := j2.Wait(context.Background()); err != nil || res != "ok" {
		t.Fatalf("post-panic job = (%v, %v), want (ok, nil)", res, err)
	}
}

func TestBatchStreamingAndAtomicAdmission(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 4})
	defer shutdownNow(t, e)

	tasks := make([]Task, 4)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) (any, error) { return i * i, nil }
	}
	b, err := e.SubmitBatch(BatchSubmission{Kind: "sq", Tasks: tasks})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	results, err := b.Wait(context.Background())
	if err != nil {
		t.Fatalf("Batch.Wait: %v", err)
	}
	for i, r := range results {
		if r.Err != nil || r.Result != i*i {
			t.Fatalf("unit %d = (%v, %v), want (%d, nil)", i, r.Result, r.Err, i*i)
		}
	}

	// A batch larger than the queue is rejected whole; nothing runs.
	var ran atomic.Int32
	big := make([]Task, 5)
	for i := range big {
		big[i] = func(ctx context.Context) (any, error) { ran.Add(1); return nil, nil }
	}
	if _, err := e.SubmitBatch(BatchSubmission{Tasks: big}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized batch error = %v, want ErrQueueFull", err)
	}
	time.Sleep(10 * time.Millisecond)
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d units of a rejected batch ran", n)
	}
}

func TestBatchCancelMidFlight(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownNow(t, e)

	started := make(chan struct{}, 1)
	tasks := []Task{
		blockerTask(started, nil),
		blockerTask(nil, nil),
		blockerTask(nil, nil),
	}
	b, err := e.SubmitBatch(BatchSubmission{Tasks: tasks})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	<-started
	b.Cancel()
	results, err := b.Wait(context.Background())
	if err != nil {
		t.Fatalf("Batch.Wait: %v", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("unit %d error = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 4})
	defer shutdownNow(t, e)

	j1, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j2, err := e.Submit(Submission{Task: blockerTask(nil, nil)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j1.Wait(context.Background())
	j2.Cancel()
	j2.Wait(context.Background())

	s := e.Stats()
	if s.Workers != 2 || s.QueueDepth != 4 {
		t.Fatalf("config echo = %d/%d, want 2/4", s.Workers, s.QueueDepth)
	}
	if s.Submitted != 2 || s.Succeeded != 1 || s.Cancelled != 1 {
		t.Fatalf("stats = %+v, want submitted=2 succeeded=1 cancelled=1", s)
	}
}

func TestJobLookupAndList(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	defer shutdownNow(t, e)

	j, err := e.Submit(Submission{Kind: "lookup", Task: func(ctx context.Context) (any, error) { return nil, nil }})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got, err := e.Job(j.ID())
	if err != nil || got != j {
		t.Fatalf("Job(%s) = (%v, %v)", j.ID(), got, err)
	}
	if _, err := e.Job("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id error = %v, want ErrNotFound", err)
	}
	j.Wait(context.Background())
	infos := e.List()
	if len(infos) != 1 || infos[0].ID != j.ID() || infos[0].Kind != "lookup" {
		t.Fatalf("List = %+v", infos)
	}
}

func TestRetentionEviction(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8, MaxRetained: 3})
	defer shutdownNow(t, e)

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		j, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) { return nil, nil }})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		j.Wait(context.Background())
		ids = append(ids, j.ID())
	}
	if n := len(e.List()); n != 3 {
		t.Fatalf("retained %d finished jobs, want 3", n)
	}
	if _, err := e.Job(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job still retained: %v", err)
	}
	if _, err := e.Job(ids[5]); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
}

func TestResultRetentionBound(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8, MaxRetained: 8, MaxRetainedResults: 2})
	defer shutdownNow(t, e)

	jobs := make([]*Job, 0, 5)
	for i := 0; i < 5; i++ {
		i := i
		j, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) { return i, nil }})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		j.Wait(context.Background())
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		res, err, ok := j.Result()
		if !ok || err != nil {
			t.Fatalf("job %d = (%v, %v, %v), want finished ok", i, res, err, ok)
		}
		if i < 3 {
			// Aged past MaxRetainedResults: payload dropped, job queryable.
			if res != nil {
				t.Fatalf("job %d result = %v, want dropped (nil)", i, res)
			}
			if _, lerr := e.Job(j.ID()); lerr != nil {
				t.Fatalf("job %d no longer queryable: %v", i, lerr)
			}
		} else if res != i {
			t.Fatalf("job %d result = %v, want %d", i, res, i)
		}
	}
}

// TestResultRetentionByFinishOrder: result payloads age by finish order. A
// long job that finishes after later, shorter submissions keeps its result;
// once it has aged past MaxRetainedResults it still keeps it while a caller
// sits in Wait; and the next eviction after the caller leaves drops it.
func TestResultRetentionByFinishOrder(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 8, MaxRetained: 16, MaxRetainedResults: 1})
	defer shutdownNow(t, e)

	release := make(chan struct{})
	slow, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) {
		<-release
		return "slow", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	quick := func(v int) {
		j, err := e.Submit(Submission{Task: func(context.Context) (any, error) { return v, nil }})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := j.Wait(context.Background()); err != nil || res != v {
			t.Fatalf("quick job %d = (%v, %v)", v, res, err)
		}
	}
	slowResult := func() any {
		res, err, ok := slow.Result()
		if !ok || err != nil {
			t.Fatalf("slow job = (%v, %v, %v), want finished ok", res, err, ok)
		}
		return res
	}
	quick(1)
	quick(2)
	close(release)
	<-slow.done
	if res := slowResult(); res != "slow" {
		t.Fatalf("slow job finished last but its result = %v", res)
	}

	// A caller parked in Wait, between the job finishing and reading its
	// result, pins the payload across evictions.
	slow.mu.Lock()
	slow.waiters++
	slow.mu.Unlock()
	quick(3)
	quick(4)
	if res := slowResult(); res != "slow" {
		t.Fatalf("result dropped from under a waiter: %v", res)
	}
	slow.mu.Lock()
	slow.waiters--
	slow.mu.Unlock()
	quick(5)
	if res := slowResult(); res != nil {
		t.Fatalf("slow job aged past MaxRetainedResults with no waiter, result = %v, want dropped", res)
	}
}

func TestShutdownDrains(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 8})
	var done atomic.Int32
	jobs := make([]*Job, 0, 4)
	for i := 0; i < 4; i++ {
		j, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) {
			done.Add(1)
			return nil, nil
		}})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if done.Load() != 4 {
		t.Fatalf("drain ran %d of 4 jobs", done.Load())
	}
	for _, j := range jobs {
		if j.Info().State != Succeeded {
			t.Fatalf("job %s state = %v after drain", j.ID(), j.Info().State)
		}
	}
	if _, err := e.Submit(Submission{Task: func(ctx context.Context) (any, error) { return nil, nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown Submit error = %v, want ErrClosed", err)
	}
}

func TestShutdownCancelsAfterDrainDeadline(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{}, 1)
	j, err := e.Submit(Submission{Task: blockerTask(started, nil)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown error = %v, want DeadlineExceeded", err)
	}
	if st := j.Info().State; st != Cancelled {
		t.Fatalf("undrainable job state = %v, want cancelled", st)
	}
}

// TestShutdownCancelsBatchUnitsAfterDrainDeadline is the regression test for
// a hang: batch units are not in the public job registry, so the forced
// cancel pass after the drain deadline used to miss them and Shutdown blocked
// forever on a mid-computation unit.
func TestShutdownCancelsBatchUnitsAfterDrainDeadline(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{}, 1)
	b, err := e.SubmitBatch(BatchSubmission{Tasks: []Task{
		blockerTask(started, nil),
		blockerTask(nil, nil),
	}})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	<-started // the first unit is running, the second queued

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- e.Shutdown(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown error = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on a running batch unit past the drain deadline")
	}
	results, err := b.Wait(context.Background())
	if err != nil {
		t.Fatalf("Batch.Wait: %v", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("unit %d error = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestConcurrentSubmitters is the race storm from the acceptance criteria:
// many goroutines hammer a 2-worker pool with submissions, waits and
// cancellations; run under -race.
func TestConcurrentSubmitters(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 64})
	defer shutdownNow(t, e)

	const submitters = 10
	const perSubmitter = 25
	var accepted, rejected, cancelled atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				j, err := e.Submit(Submission{
					Kind:     fmt.Sprintf("storm-%d", s),
					Priority: i % 3,
					Task: func(ctx context.Context) (any, error) {
						select {
						case <-time.After(time.Duration(i%3) * time.Millisecond):
							return i, nil
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					},
				})
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("submitter %d: %v", s, err)
						return
					}
					rejected.Add(1)
					continue
				}
				accepted.Add(1)
				if i%5 == 0 {
					j.Cancel()
					cancelled.Add(1)
				}
				if _, err := j.Wait(context.Background()); err != nil && !errors.Is(err, context.Canceled) {
					t.Errorf("submitter %d wait: %v", s, err)
					return
				}
				e.Stats() // concurrent reads race-check the counters
				e.List()
			}
		}(s)
	}
	wg.Wait()

	s := e.Stats()
	if s.Submitted != accepted.Load() {
		t.Fatalf("Submitted = %d, accepted = %d", s.Submitted, accepted.Load())
	}
	if s.Rejected != rejected.Load() {
		t.Fatalf("Rejected = %d, rejections seen = %d", s.Rejected, rejected.Load())
	}
	if s.Succeeded+s.Failed+s.Cancelled != s.Submitted {
		t.Fatalf("outcomes %d+%d+%d != submitted %d", s.Succeeded, s.Failed, s.Cancelled, s.Submitted)
	}
	if s.Failed != 0 {
		t.Fatalf("%d jobs failed during the storm", s.Failed)
	}
}
