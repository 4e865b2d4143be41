// Package serve is ssnkit's HTTP/JSON evaluation service: the closed-form
// SSN models, batched and long-running, behind a small REST surface. It is
// the seam every scaling direction plugs into — one process today, shards
// behind a load balancer tomorrow — and it mirrors how SSN analysis is
// consumed in signoff flows: cell noise models evaluated en masse per
// design, not one CLI invocation at a time.
//
// Endpoints:
//
//	POST /v1/maxssn      single or batch Params -> {vmax, case, sensitivity}
//	POST /v1/solve       inverse design (variable for a vmax budget) / yield
//	POST /v1/waveform    sampled V(t)/I(t) from the L or LC closed form
//	POST /v1/sweep       multi-axis grid sweep streamed as NDJSON or SSNC
//	POST /v1/impedance   PDN |Z(f)| point, streamed sweep or decap optimize
//	POST /v1/shard       one distributed-sweep shard [lo,hi) as NDJSON
//	POST /v1/montecarlo  asynchronous Monte Carlo job; returns a job ID
//	POST /v1/distsweep   coordinate a sweep across worker replicas
//	GET  /v1/distsweep/status  progress of the latest coordinator runs
//	GET  /v1/jobs/{id}   job status and result
//	GET  /healthz        liveness + in-flight/cache gauges
//	GET  /metrics        Prometheus text exposition
//
// Internals: every unit of evaluation — a batch item, a Monte Carlo job —
// runs through one bounded worker pool sized by GOMAXPROCS, and a batch
// fans out on par.For, the module's one fan-out loop, holding one pool
// slot per item; ASDM
// extraction and impedance profiles (the expensive repeated steps) are
// memoized in one sharded LRU type, while each /v1/maxssn item compiles
// its own evaluation plan, which is cheaper than a cache lookup; requests
// are validated against size and time limits with structured JSON errors;
// every streamed reply (sweep, impedance, distsweep) goes through one
// stream writer (stream.go) that buffers, flushes and ends it with exactly
// one terminal record, and every reply encodes into one buffer pool;
// shutdown drains in-flight jobs before cancelling them.
package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"runtime"
	"time"

	"ssnkit/internal/pdn"
)

// Config tunes the service. The zero value is usable: every field has a
// production-ready default.
type Config struct {
	Addr           string        // listen address, default ":8350"
	Workers        int           // worker-pool slots, default GOMAXPROCS
	MaxBatch       int           // max items per /v1/maxssn batch, default 8192
	CacheSize      int           // ASDM extraction LRU entries, default 64
	RequestTimeout time.Duration // synchronous evaluation budget, default 30s
	MaxBodyBytes   int64         // request body cap, default 8 MiB
	MaxJobs        int           // retained job records, default 1024
	MaxMCSamples   int           // max Monte Carlo samples per job, default 10,000,000
	MaxSweepPoints int           // max grid points per /v1/sweep, default 1,000,000

	// Admission control. Evaluation endpoints pass through a bounded
	// concurrency + queue gate; excess load is shed with 429 + Retry-After
	// instead of queueing without bound.
	MaxConcurrent int           // concurrently admitted requests, default 2*Workers
	MaxQueue      int           // requests allowed to wait for admission, default 64
	RetryAfter    time.Duration // Retry-After hint on queue sheds, default 1s
	QuotaRPS      float64       // per-API-key token refill rate, 0 disables quotas
	QuotaBurst    float64       // per-API-key bucket capacity, default 2*QuotaRPS (min 1)

	// MaxDistRuns bounds retained /v1/distsweep run records, default 64.
	MaxDistRuns int

	// EnablePprof mounts net/http/pprof under /debug/pprof/ and a
	// runtime/metrics snapshot under /debug/runtime. Profiles expose heap
	// contents and symbol names; enable only on loopback or otherwise
	// access-controlled listeners, never on one facing untrusted clients.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8350"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8192
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.MaxMCSamples <= 0 {
		c.MaxMCSamples = 10_000_000
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 1_000_000
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * c.Workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.QuotaRPS > 0 && c.QuotaBurst <= 0 {
		c.QuotaBurst = max(2*c.QuotaRPS, 1)
	}
	if c.MaxDistRuns <= 0 {
		c.MaxDistRuns = 64
	}
	return c
}

// Server wires the pool, job store, caches and metrics behind
// the HTTP mux. Construct with New, serve with ListenAndServe (or mount
// Handler in a test server), stop with Shutdown.
type Server struct {
	cfg      Config
	metrics  *Metrics
	cache    *ExtractCache
	profiles *lru[string, *pdn.Profile]
	pool     *pool
	jobs     *jobStore
	adm      *admission
	dist     *distRuns
	mux      *http.ServeMux
	httpSrv  *http.Server
	start    time.Time
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	p := newPool(cfg.Workers)
	s := &Server{
		cfg:      cfg,
		metrics:  m,
		cache:    NewExtractCache(cfg.CacheSize, m),
		profiles: newLRU[string, *pdn.Profile](profileCacheSize, fnv1a),
		pool:     p,
		jobs:     newJobStore(p, m, cfg.MaxJobs),
		dist:     newDistRuns(cfg.MaxDistRuns),
		mux:      http.NewServeMux(),
		start:    time.Now(),
	}
	s.adm = newAdmission(cfg, m)
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mux.Handle("POST /v1/maxssn", s.admitted("/v1/maxssn", s.handleMaxSSN))
	s.mux.Handle("POST /v1/solve", s.admitted("/v1/solve", s.handleSolve))
	s.mux.Handle("POST /v1/waveform", s.admitted("/v1/waveform", s.handleWaveform))
	s.mux.Handle("POST /v1/sweep", s.admitted("/v1/sweep", s.handleSweep))
	s.mux.Handle("POST /v1/impedance", s.admitted("/v1/impedance", s.handleImpedance))
	s.mux.Handle("POST /v1/shard", s.admitted("/v1/shard", s.handleShard))
	s.mux.Handle("POST /v1/montecarlo", s.admitted("/v1/montecarlo", s.handleMonteCarlo))
	s.mux.Handle("POST /v1/distsweep", s.instrument("/v1/distsweep", s.handleDistSweep))
	s.mux.Handle("GET /v1/distsweep/status", s.instrument("/v1/distsweep/status", s.handleDistStatus))
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJob))
	s.mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	if cfg.EnablePprof {
		s.mountDebug()
	}
	return s
}

// Handler returns the routed handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on cfg.Addr until Shutdown or a listener error.
// Like net/http, it returns http.ErrServerClosed after a clean Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener (lets callers bind port 0 and
// discover the address before accepting traffic).
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Addr returns the configured listen address.
func (s *Server) Addr() string { return s.cfg.Addr }

// Shutdown stops accepting connections, then drains in-flight jobs. Jobs
// still running when ctx expires are cancelled and awaited, so no
// goroutine outlives the call.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.httpSrv.Shutdown(ctx)
	drainErr := s.jobs.drain(ctx)
	return errors.Join(httpErr, drainErr)
}
