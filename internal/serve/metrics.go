package serve

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// latencyBuckets are the histogram upper bounds in seconds. The range spans
// microsecond closed-form evaluations up to multi-second Monte Carlo jobs.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Metrics is the service's instrumentation registry, rendered on /metrics
// in the Prometheus text exposition format without a client library. Each
// field is one family — a counter vector, a gauge or a histogram vector —
// declared once in NewMetrics with its name, help text and label names;
// call sites update the family directly.
type Metrics struct {
	families []family // declaration order, which is render order

	requests, cacheHits, cacheMisses                              *counterVec
	sweeps, sweepsAborted, sweepPoints, sweepChunks, sweepRefined *counterVec
	admissionShed, shards, shardPoints, distSweeps                *counterVec
	legacyEnvelope, solves, jobs, columnar                        *counterVec
	impedance, impedancePoints, impedanceCache, optimizeTrials    *counterVec
	latency                                                       *histogramVec
	admissionQueueDepth, jobsInFlight                             *gauge
}

// NewMetrics declares every family, in the order /metrics prints them.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.requests = m.counter("ssnserve_requests_total", "HTTP requests by route and status code.", "path", "code")
	m.latency = m.histogram("ssnserve_request_duration_seconds", "Request latency by route.", latencyBuckets, "path")
	m.cacheHits = m.counter("ssnserve_cache_hits_total", "ASDM extraction cache hits.")
	m.cacheMisses = m.counter("ssnserve_cache_misses_total", "ASDM extraction cache misses.")
	m.sweeps = m.counter("ssnserve_sweeps_total", "Grid sweeps started.")
	m.sweepsAborted = m.counter("ssnserve_sweeps_aborted_total", "Grid sweeps cancelled mid-stream.")
	m.sweepPoints = m.counter("ssnserve_sweep_points_total", "Sweep points evaluated.")
	m.sweepChunks = m.counter("ssnserve_sweep_chunks_total", "Sweep chunks dispatched.")
	m.sweepRefined = m.counter("ssnserve_sweep_refined_points_total", "Adaptive refinement points emitted.")
	m.admissionQueueDepth = m.gauge("ssnserve_admission_queue_depth", "Requests waiting for an admission slot.")
	m.admissionShed = m.counter("ssnserve_admission_shed_total", "Requests shed with 429 by reason.", "reason")
	m.shards = m.counter("ssnserve_shards_total", "Distributed sweep shards evaluated.")
	m.shardPoints = m.counter("ssnserve_shard_points_total", "Points evaluated inside shard requests.")
	m.distSweeps = m.counter("ssnserve_distsweeps_total", "Coordinator runs started on /v1/distsweep.")
	m.legacyEnvelope = m.counter("ssnserve_legacy_envelope_total", "Responses to deprecated inline-parameter requests.")
	m.solves = m.counter("ssnserve_solves_total", "Inverse-design items answered on /v1/solve by mode.", "mode")
	m.impedance = m.counter("ssnserve_impedance_total", "PDN impedance requests on /v1/impedance by mode.", "mode")
	m.impedancePoints = m.counter("ssnserve_impedance_points_total", "Impedance frequency points evaluated.")
	m.impedanceCache = m.counter("ssnserve_impedance_cache_total", "Sweep-profile cache lookups by outcome.", "outcome")
	m.optimizeTrials = m.counter("ssnserve_optimize_trials_total", "Decap placement trials by outcome (screened, rejected, accepted).", "outcome")
	m.columnar = m.counter("ssnserve_columnar_payloads_total", "SSNC columnar payloads by route and direction.", "path", "dir")
	m.jobs = m.counter("ssnserve_jobs_total", "Job state transitions.", "state")
	m.jobsInFlight = m.gauge("ssnserve_jobs_in_flight", "Jobs currently running.")
	return m
}

// WriteTo renders every family in declaration order, each family's series
// sorted by label values, so the output is deterministic. An unlabeled
// series always prints; a labeled family prints only the series it has seen.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	for _, f := range m.families {
		d := f.describe()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, d.typ)
		f.writeSeries(&b)
	}
	return b.WriteTo(w)
}

// family is one declared metric family.
type family interface {
	describe() *desc
	writeSeries(b *bytes.Buffer)
}

// desc is what a family declares once: name, help text, type and labels.
type desc struct {
	name, help, typ string
	labels          []string
}

func (d *desc) describe() *desc { return d }

// labelValues keys one series by its label values, in the family's label
// order. No family has more than two labels.
type labelValues [2]string

func keyOf(values []string) (k labelValues) {
	copy(k[:], values)
	return k
}

// sample writes one line: name{labels} value, where le, when set, is the
// histogram bucket label appended after the family's own.
func (d *desc) sample(b *bytes.Buffer, suffix string, k labelValues, le, value string) {
	b.WriteString(d.name)
	b.WriteString(suffix)
	sep := byte('{')
	for i, l := range d.labels {
		b.WriteByte(sep)
		b.WriteString(l + "=" + strconv.Quote(k[i]))
		sep = ','
	}
	if le != "" {
		b.WriteByte(sep)
		b.WriteString("le=" + strconv.Quote(le))
		sep = ','
	}
	if sep == ',' {
		b.WriteByte('}')
	}
	b.WriteString(" " + value + "\n")
}

// sortedKeys returns a family's series keys in label-value order.
func sortedKeys[V any](series map[labelValues]V) []labelValues {
	keys := make([]labelValues, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// counterVec is a counter family; with no labels it is a single counter.
type counterVec struct {
	desc
	mu     sync.Mutex
	series map[labelValues]uint64
}

func (m *Metrics) counter(name, help string, labels ...string) *counterVec {
	c := &counterVec{desc: desc{name, help, "counter", labels}, series: map[labelValues]uint64{}}
	if len(labels) == 0 {
		c.series[labelValues{}] = 0
	}
	m.families = append(m.families, c)
	return c
}

// add adds n to the series named by the label values.
func (c *counterVec) add(n int, values ...string) {
	k := keyOf(values)
	c.mu.Lock()
	c.series[k] += uint64(n)
	c.mu.Unlock()
}

func (c *counterVec) inc(values ...string) { c.add(1, values...) }

func (c *counterVec) writeSeries(b *bytes.Buffer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range sortedKeys(c.series) {
		c.sample(b, "", k, "", strconv.FormatUint(c.series[k], 10))
	}
}

// gauge is an unlabeled value that moves both ways.
type gauge struct {
	desc
	atomic.Int64
}

func (m *Metrics) gauge(name, help string) *gauge {
	g := &gauge{desc: desc{name: name, help: help, typ: "gauge"}}
	m.families = append(m.families, g)
	return g
}

func (g *gauge) writeSeries(b *bytes.Buffer) {
	g.sample(b, "", labelValues{}, "", strconv.FormatInt(g.Load(), 10))
}

// histogramVec is a fixed-bucket histogram family.
type histogramVec struct {
	desc
	bounds []float64
	mu     sync.Mutex
	series map[labelValues]*histogram
}

// histogram holds one series: a count per bucket (non-cumulative, the
// last one +Inf) and the sum of observations.
type histogram struct {
	counts []uint64
	sum    float64
}

func (m *Metrics) histogram(name, help string, bounds []float64, labels ...string) *histogramVec {
	h := &histogramVec{desc: desc{name, help, "histogram", labels}, bounds: bounds,
		series: map[labelValues]*histogram{}}
	m.families = append(m.families, h)
	return h
}

// observe records v in the series named by the label values.
func (h *histogramVec) observe(v float64, values ...string) {
	k := keyOf(values)
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) is +Inf
	h.mu.Lock()
	s := h.series[k]
	if s == nil {
		s = &histogram{counts: make([]uint64, len(h.bounds)+1)}
		h.series[k] = s
	}
	s.counts[i]++
	s.sum += v
	h.mu.Unlock()
}

func (h *histogramVec) writeSeries(b *bytes.Buffer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, k := range sortedKeys(h.series) {
		s := h.series[k]
		cum := uint64(0)
		for i, c := range s.counts {
			cum += c
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			h.sample(b, "_bucket", k, le, strconv.FormatUint(cum, 10))
		}
		h.sample(b, "_sum", k, "", strconv.FormatFloat(s.sum, 'g', -1, 64))
		h.sample(b, "_count", k, "", strconv.FormatUint(cum, 10))
	}
}
