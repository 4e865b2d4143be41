// Package par holds the one fan-out loop of the module: n independent
// items on a bounded set of workers, each worker with its own state.
// It knows nothing of contexts, gates or errors; a caller checks its
// context, takes its Gate slot and records its errors inside the item
// function it hands out.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Gate bounds global concurrency: a fan-out embedded in a service takes
// one slot per unit of work, so it shares slots with the rest of the
// traffic instead of stacking its own pool on top.
type Gate interface {
	Acquire(context.Context) error
	Release()
}

// Workers resolves a requested worker count for n items: a request of
// <= 0 means GOMAXPROCS, and the result is capped at n.
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return min(requested, n)
}

// For runs every index i < n exactly once on Workers(workers, n)
// workers. Worker w calls body(w) once, first, and passes each index it
// claims to the item function body returned, which may carry the
// worker's private state. Workers claim indices in ascending order from
// one shared counter, so at one worker the items run in index order. The
// calling goroutine is worker 0: a one-worker For starts no goroutine.
// For returns once every worker has returned.
func For(n, workers int, body func(w int) func(i int)) {
	workers = Workers(workers, n)
	if workers < 1 {
		return
	}
	var next atomic.Int64
	work := func(w int) {
		item := body(w)
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			item(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
