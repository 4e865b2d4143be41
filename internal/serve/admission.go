package serve

import (
	"context"
	"math"
	"net/http"
	"sync"
	"time"
)

// admission is the service's backpressure front door: every evaluation
// request passes through a bounded concurrency + bounded queue gate, and
// optionally a per-client token bucket, before it touches the worker pool.
// The pool bounds CPU; admission bounds *commitment* — without it a
// traffic spike parks unbounded goroutines (each pinning a request body
// and response buffer) waiting for pool slots, and latency grows without
// any signal to the client. Shedding early with 429 + Retry-After turns
// overload into a control signal load balancers and the ssndist
// coordinator both understand.
type admission struct {
	metrics    *Metrics
	slots      chan struct{} // concurrently processed requests
	maxQueue   int           // requests allowed to wait for a slot
	retryAfter int           // Retry-After hint on queue sheds, seconds

	mu     sync.Mutex
	queued int

	quota *quotaTable // nil when quotas are disabled
}

func newAdmission(cfg Config, m *Metrics) *admission {
	a := &admission{
		metrics:    m,
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		maxQueue:   cfg.MaxQueue,
		retryAfter: int(math.Ceil(cfg.RetryAfter.Seconds())),
	}
	if cfg.QuotaRPS > 0 {
		a.quota = newQuotaTable(cfg.QuotaRPS, cfg.QuotaBurst)
	}
	return a
}

// admit reserves a processing slot. It returns a release func on success;
// otherwise a structured 429 (queue full or quota exhausted, with a
// Retry-After hint) or a timeout error when the caller gave up queued.
func (a *admission) admit(ctx context.Context, apiKey string) (func(), *apiError) {
	if a.quota != nil {
		if ok, wait := a.quota.take(apiKey); !ok {
			a.metrics.admissionShed.inc("quota")
			return nil, &apiError{Code: CodeQuotaExhausted,
				Message:    "per-client request quota exhausted",
				retryAfter: int(math.Ceil(wait.Seconds()))}
		}
	}
	select {
	case a.slots <- struct{}{}: // fast path: no queueing
		return a.release, nil
	default:
	}
	a.mu.Lock()
	if a.queued >= a.maxQueue {
		a.mu.Unlock()
		a.metrics.admissionShed.inc("queue_full")
		return nil, &apiError{Code: CodeOverloaded,
			Message:    "server work queue is full",
			retryAfter: a.retryAfter}
	}
	a.queued++
	depth := a.queued
	a.mu.Unlock()
	a.metrics.admissionQueueDepth.Store(int64(depth))
	defer func() {
		a.mu.Lock()
		a.queued--
		depth := a.queued
		a.mu.Unlock()
		a.metrics.admissionQueueDepth.Store(int64(depth))
	}()
	select {
	case a.slots <- struct{}{}:
		return a.release, nil
	case <-ctx.Done():
		return nil, &apiError{Code: CodeTimeout,
			Message: "request abandoned while queued: " + ctx.Err().Error()}
	}
}

func (a *admission) release() { <-a.slots }

// quotaTable is a per-API-key token bucket: rate tokens/second refill,
// burst capacity. Unknown keys (including the empty key all anonymous
// clients share) lazily get a full bucket.
type quotaTable struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*bucket
	now     func() time.Time // injectable for tests
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotaTable(rate, burst float64) *quotaTable {
	if burst < 1 {
		burst = 1
	}
	return &quotaTable{rate: rate, burst: burst, buckets: map[string]*bucket{}, now: time.Now}
}

// take spends one token from key's bucket, reporting how long until a
// token is available when the bucket is dry.
func (q *quotaTable) take(key string) (bool, time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b := q.buckets[key]
	if b == nil {
		q.pruneLocked(now)
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[key] = b
	}
	b.tokens = math.Min(q.burst, b.tokens+q.rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
}

// pruneLocked drops buckets that have fully refilled (indistinguishable
// from fresh ones) once the table grows past a bound, so an attacker
// cycling random API keys cannot grow it without limit.
func (q *quotaTable) pruneLocked(now time.Time) {
	const maxBuckets = 8192
	if len(q.buckets) < maxBuckets {
		return
	}
	for k, b := range q.buckets {
		if b.tokens+q.rate*now.Sub(b.last).Seconds() >= q.burst {
			delete(q.buckets, k)
		}
	}
}

// admitted wraps an instrumented handler with admission control, keyed by
// the X-API-Key header. Health, metrics and status probes stay un-gated.
func (s *Server) admitted(path string, h http.HandlerFunc) http.Handler {
	return s.instrument(path, func(w http.ResponseWriter, r *http.Request) {
		release, aerr := s.adm.admit(r.Context(), r.Header.Get("X-API-Key"))
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		defer release()
		h(w, r)
	})
}
