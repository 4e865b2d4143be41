package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ requested, n, want int }{
		{0, 1 << 20, procs},
		{-1, 1 << 20, procs},
		{-1, 1, 1},
		{3, 7, 3},
		{64, 7, 7},
		{5, 0, 0},
	} {
		if got := Workers(c.requested, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

// TestForEveryIndexOnce checks that every index runs exactly once and that
// body runs once per worker, with distinct w in [0, Workers(workers, n)).
func TestForEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 1, 3, 64} {
			hits := make([]atomic.Int32, n)
			var mu sync.Mutex
			bodies := map[int]int{}
			For(n, workers, func(w int) func(int) {
				mu.Lock()
				bodies[w]++
				mu.Unlock()
				return func(i int) { hits[i].Add(1) }
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
			want := Workers(workers, n)
			if len(bodies) != want {
				t.Errorf("n=%d workers=%d: %d distinct workers, want %d", n, workers, len(bodies), want)
			}
			for w, calls := range bodies {
				if w < 0 || w >= want || calls != 1 {
					t.Errorf("n=%d workers=%d: body(%d) called %d times", n, workers, w, calls)
				}
			}
		}
	}
}

// goid returns the current goroutine's id from its stack header.
func goid() int {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.Atoi(string(b[:bytes.IndexByte(b, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}

// TestForCallerIsWorkerZero checks that worker 0 is the calling goroutine,
// so a one-worker For runs everything in place and starts no goroutine.
func TestForCallerIsWorkerZero(t *testing.T) {
	caller := goid()
	var calls int // unsynchronized on purpose: -race flags any other goroutine
	For(50, 1, func(w int) func(int) {
		if w != 0 || goid() != caller {
			t.Errorf("one-worker body(%d) ran off the calling goroutine", w)
		}
		return func(i int) {
			if i != calls || goid() != caller {
				t.Errorf("item %d ran out of order or off the calling goroutine", i)
			}
			calls++
		}
	})
	if calls != 50 {
		t.Fatalf("ran %d items, want 50", calls)
	}

	var zero atomic.Int64
	For(50, 3, func(w int) func(int) {
		if w == 0 {
			zero.Store(int64(goid()))
		}
		return func(int) {}
	})
	if got := zero.Load(); got != int64(caller) {
		t.Errorf("worker 0 ran on goroutine %d, want the caller's %d", got, caller)
	}
}
