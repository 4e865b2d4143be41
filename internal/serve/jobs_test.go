package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func waitTerminal(t *testing.T, st *jobStore, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := st.lookup(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch j.State {
		case JobDone, JobFailed, JobCanceled:
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobStoreLifecycle(t *testing.T) {
	st := newJobStore(newPool(2), NewMetrics(), 16)
	j := st.submit(func(ctx context.Context) (any, error) { return 42, nil })
	if j.ID == "" {
		t.Fatal("empty job ID")
	}
	final := waitTerminal(t, st, j.ID)
	if final.State != JobDone || final.Result != 42 {
		t.Errorf("final %+v", final)
	}
	if final.Started == nil || final.Finished == nil {
		t.Error("timestamps not set")
	}
}

func TestJobStoreFailure(t *testing.T) {
	st := newJobStore(newPool(1), NewMetrics(), 16)
	j := st.submit(func(ctx context.Context) (any, error) {
		return nil, errors.New("solver exploded")
	})
	final := waitTerminal(t, st, j.ID)
	if final.State != JobFailed || final.Error == nil || final.Error.Message != "solver exploded" {
		t.Errorf("final %+v", final)
	}
}

func TestJobStorePoolBound(t *testing.T) {
	// With one slot, two blocking jobs must serialize.
	st := newJobStore(newPool(1), NewMetrics(), 16)
	gate := make(chan struct{})
	running := make(chan string, 2)
	for i := 0; i < 2; i++ {
		i := i
		st.submit(func(ctx context.Context) (any, error) {
			running <- fmt.Sprint(i)
			<-gate
			return nil, nil
		})
	}
	<-running
	select {
	case id := <-running:
		t.Fatalf("second job %s ran concurrently on a 1-slot pool", id)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := st.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobStoreEvictionKeepsActive(t *testing.T) {
	st := newJobStore(newPool(4), NewMetrics(), 2)
	var done []string
	for i := 0; i < 4; i++ {
		j := st.submit(func(ctx context.Context) (any, error) { return nil, nil })
		done = append(done, j.ID)
		waitTerminal(t, st, j.ID)
	}
	// A blocked (active) job plus overflow finished jobs: the active one
	// must survive eviction.
	gate := make(chan struct{})
	active := st.submit(func(ctx context.Context) (any, error) { <-gate; return nil, nil })
	st.submit(func(ctx context.Context) (any, error) { return nil, nil })
	if _, ok := st.lookup(active.ID); !ok {
		t.Fatal("active job evicted")
	}
	close(gate)
	if err := st.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	n := len(st.jobs)
	st.mu.Unlock()
	if n > 3 {
		t.Errorf("store retained %d jobs, cap is 2 (+ active slack)", n)
	}
	_ = done
}

func TestPoolAcquireRespectsContext(t *testing.T) {
	p := newPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("full pool acquire: %v, want deadline", err)
	}
	p.Release()
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Release()
}

func TestJobIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := newJobID()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate job ID %s", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestJobsInFlightCountsOnlyRunningJobs: a job canceled while it still
// waits for a pool slot never ran, so it must not move the running gauge.
// With job A running and job B canceled while queued, the gauge reads 1.
func TestJobsInFlightCountsOnlyRunningJobs(t *testing.T) {
	m := NewMetrics()
	st := newJobStore(newPool(1), m, 16)
	gate := make(chan struct{})
	started := make(chan struct{})
	st.submit(func(ctx context.Context) (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started
	b := st.submit(func(ctx context.Context) (any, error) { return nil, nil })
	st.mu.Lock()
	st.jobs[b.ID].cancel()
	st.mu.Unlock()
	if final := waitTerminal(t, st, b.ID); final.State != JobCanceled || final.Started != nil {
		t.Fatalf("queued job ended %s (started %v), want canceled before running", final.State, final.Started)
	}
	// finish moves the gauge before it counts the transition, so once the
	// cancel is counted the gauge has settled.
	for m.value("ssnserve_jobs_total", "canceled") == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := m.jobsInFlight.Load(); n != 1 {
		t.Errorf("jobs in flight = %d with one job running, want 1", n)
	}
	close(gate)
	if err := st.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := m.jobsInFlight.Load(); n != 0 {
		t.Errorf("jobs in flight = %d after both jobs ended, want 0", n)
	}
}
