package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ssnkit/internal/serve"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent names the enclosing span (0 for a root). N is the units of
// work the span covers (items, points, steps), so per-unit costs come out
// of one timed loop instead of per-call timer reads.
type span struct {
	Req    string `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
	Self   int64  `json:"self_ns"` // duration minus the time children cover
}

// tracer keeps spans and exact counts in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string][]float64{}} }

// record appends a finished span and returns its id.
func (t *tracer) record(req string, parent int, name string, start, end time.Time, n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), N: n})
	return id
}

// begin opens a span whose children need its id; end closes it.
func (t *tracer) begin(req string, parent int, name string) int {
	now := time.Now()
	return t.record(req, parent, name, now, now, 0)
}

func (t *tracer) end(id, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
	t.spans[id-1].N = n
}

// do times fn as one span covering n units.
func (t *tracer) do(req string, parent int, name string, n int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(req, parent, name, start, time.Now(), n)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// count records one exact count observation (unknowns, placements).
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// agg sums the spans of one name: total duration in ns, span count and
// units covered.
func (t *tracer) agg(name string) (ns float64, spans, units int) {
	for _, s := range t.spans {
		if s.Name == name {
			ns += float64(s.End - s.Start)
			spans++
			units += s.N
		}
	}
	return ns, spans, units
}

// perSpan is the mean span duration in ns; perUnit the mean per unit.
func (t *tracer) perSpan(name string) float64 { ns, c, _ := t.agg(name); return ns / float64(c) }
func (t *tracer) perUnit(name string) float64 { ns, _, u := t.agg(name); return ns / float64(u) }

// reqSum totals the durations of the named spans of one request.
func (t *tracer) reqSum(req string, names []string) float64 {
	ns := 0.0
	for _, s := range t.spans {
		if s.Req != req {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				ns += float64(s.End - s.Start)
			}
		}
	}
	return ns
}

// selfTimes fills Self: each span's duration minus the union of the
// intervals its children cover.
func (t *tracer) selfTimes() {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curLo, curHi := int64(0), int64(-1), int64(-1)
		for _, x := range iv {
			if x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		s.Self = s.End - s.Start - covered
	}
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.selfTimes()
	b, err := json.Marshal(struct {
		Spans  []span               `json:"spans"`
		Counts map[string][]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// handlerRun is one in-process replay through a fresh system's handler.
type handlerRun struct {
	ms            []float64 // per measured request
	before, after map[string]float64
}

// newHandler builds the handler a workload's child serves, in process.
func newHandler(w *workload, procs int) http.Handler {
	if w.child == childServe {
		return serve.New(serve.Config{Workers: procs}).Handler()
	}
	return oracleHandler()
}

// replayHandler sends warm then reqs through the child's handler built in
// process (serve.New(cfg).Handler() or the oracle handler) with an
// httptest recorder, one handler span per measured request. Replies are
// checked, and against want when it is non-nil.
func replayHandler(t *tracer, w *workload, procs int, warm, reqs []request, want []reply) (handlerRun, error) {
	var hr handlerRun
	h := newHandler(w, procs)
	call := func(rq request) (*httptest.ResponseRecorder, time.Time, time.Time) {
		r := httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(rq.body))
		r.Header.Set("Content-Type", "application/json")
		if w.accept != "" {
			r.Header.Set("Accept", w.accept)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, r)
		return rec, start, time.Now()
	}
	metrics := func() (map[string]float64, error) {
		if w.child != childServe {
			return nil, nil
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return parseMetrics(rec.Body)
	}
	verify := func(rec *httptest.ResponseRecorder, want *reply) error {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		got, err := w.check(rec.Body.Bytes())
		if err == nil && want != nil && got.digest != want.digest {
			err = fmt.Errorf("reply differs from in-process evaluation")
		}
		return err
	}
	for i, rq := range warm {
		if rec, _, _ := call(rq); verify(rec, nil) != nil {
			return hr, fmt.Errorf("%s replay warm-up %d: %w", w.name, i, verify(rec, nil))
		}
	}
	var err error
	if hr.before, err = metrics(); err != nil {
		return hr, err
	}
	for i, rq := range reqs {
		rec, start, end := call(rq)
		t.record(fmt.Sprintf("%s/%d", w.name, i), 0, "handler", start, end, 1)
		var wantI *reply
		if want != nil {
			wantI = &want[i]
		}
		if err := verify(rec, wantI); err != nil {
			return hr, fmt.Errorf("%s replay %d: %w", w.name, i, err)
		}
		hr.ms = append(hr.ms, float64(end.Sub(start).Nanoseconds())/1e6)
	}
	hr.after, err = metrics()
	return hr, err
}

// hitRatio is hits/(hits+misses).
func hitRatio(hits, misses float64) float64 { return hits / (hits + misses) }

// replay runs one workload's measured requests in process at the child's
// GOMAXPROCS, so the layers run with the procs they get in the child:
// first through the handler (checked against want when it is non-nil),
// then through the public functions the handler calls, one direct root
// span per request.
func (b *bench) replay(t *tracer, ev *evaluator, w *workload, warm, meas []request, want []reply) (handlerRun, error) {
	var hr handlerRun
	err := withProcs(b.procs, func() error {
		var err error
		if hr, err = replayHandler(t, w, b.procs, warm, meas, want); err != nil {
			return err
		}
		for i, rq := range meas {
			req := fmt.Sprintf("%s/%d", w.name, i)
			root := t.begin(req, 0, "direct")
			if err := layers[w.name].direct(t, ev, req, root, rq); err != nil {
				return fmt.Errorf("%s direct replay %d: %w", w.name, i, err)
			}
			t.end(root, 1)
		}
		return nil
	})
	return hr, err
}

// traced runs the per-layer measurement: one round of the workload with a
// client span on every request, then an in-process replay of the first
// requests of every workload, through the handler and through the public
// functions the handler calls. It reports the per-layer metrics and
// writes the spans.
func (b *bench) traced(spansPath string) (result, error) {
	ownReplay := b.w.replay
	if b.quick {
		ownReplay = 2
	}
	reqs, want, err := b.batch(max(b.perRound, ownReplay))
	if err != nil {
		return result{}, err
	}
	t := newTracer()
	rr, err := b.round(reqs[:b.perRound], want[:b.perRound], t)
	if err != nil {
		return result{}, fmt.Errorf("%s round: %w", b.w.name, err)
	}
	rs := []roundResult{rr}
	res := b.tally(rs)
	if err := firstError(rs); err != nil {
		fmt.Fprintf(os.Stderr, "ssnbench: %s: %v\n", b.w.name, err)
	}

	// Replays: this workload's first requests, checked against the
	// expected replies, and the same seed's first requests of every other
	// workload. A traced run must report every per-layer metric, and most
	// of them live on one home workload, so each traced run measures the
	// whole layer ledger.
	handlers := map[string]handlerRun{}
	for _, w := range workloads {
		warmN, replayN := w.warmup, w.replay
		if b.quick {
			warmN, replayN = 1, 2
		}
		warm, meas, want := b.warm, reqs, want
		if w != b.w {
			warm, meas = w.generate(b.seed, warmN, replayN)
			want = nil
		}
		meas = meas[:min(replayN, len(meas))]
		ev := newEvaluator(b.procs)
		hr, err := b.replay(t, ev, w, warm, meas, want)
		if err != nil {
			return result{}, err
		}
		handlers[w.name] = hr
		if err := layers[w.name].probe(t, ev, warm, meas, b.nproc); err != nil {
			return result{}, fmt.Errorf("%s probe: %w", w.name, err)
		}
	}
	if err := t.write(spansPath); err != nil {
		return result{}, err
	}

	m := res.Metrics
	own := handlers[b.w.name]
	ops, _ := rr.ops()
	// Each request is timed with and without its client span, so each
	// ratio weighs the span on the same request at the same moment,
	// whatever the mix of request costs or cache hits.
	var spanRatio []float64
	for _, s := range rr.samples {
		spanRatio = append(spanRatio, float64(s.spanLat)/float64(s.lat)-1)
	}
	clientP50 := quantile(latenciesMS(rs), 0.5)
	handlerP50 := quantile(own.ms, 0.5)
	var overhead []float64
	for i, ms := range own.ms {
		overhead = append(overhead, ms-t.reqSum(fmt.Sprintf("%s/%d", b.w.name, i), layers[b.w.name].compute)/1e6)
	}
	bytesOut := 0
	for _, s := range rr.samples {
		bytesOut += s.bytes
	}
	m["server_ms_mean"] = metric{b.serverMS(rr), "ms"}
	m["handler_ms_p50"] = metric{handlerP50, "ms"}
	m["transport_ms_p50"] = metric{clientP50 - handlerP50, "ms"}
	m["overhead_ms_p50"] = metric{quantile(overhead, 0.5), "ms"}
	m["resp_bytes_per_op"] = metric{float64(bytesOut) / float64(ops), "bytes"}
	m["cpu_ms_per_op"] = metric{rr.cpu * 1e3 / float64(ops), "ms"}
	m["trace.overhead_ratio"] = metric{quantile(spanRatio, 0.5), "ratio"}

	mx, imp := handlers["maxssn"], handlers["impedance"]
	m["serve.extract_cache.hit_ratio"] = metric{hitRatio(
		sumPrefix(mx.before, mx.after, "ssnserve_cache_hits_total"),
		sumPrefix(mx.before, mx.after, "ssnserve_cache_misses_total")), "ratio"}
	m["serve.profile_cache.hit_ratio"] = metric{hitRatio(
		sumPrefix(imp.before, imp.after, `ssnserve_impedance_cache_total{outcome="hit"}`),
		sumPrefix(imp.before, imp.after, `ssnserve_impedance_cache_total{outcome="miss"}`)), "ratio"}
	m["serve.plan_cache.hit_ns"] = metric{t.perUnit("serve.plan_cache.hit"), "ns"}
	m["serve.plan_cache.miss_ns"] = metric{t.perUnit("serve.plan_cache.miss"), "ns"}
	m["device.extract_ms"] = metric{t.perSpan("device.extract") / 1e6, "ms"}
	m["ssn.plan.compile_ns"] = metric{t.perUnit("ssn.plan.compile"), "ns"}
	m["ssn.sens_ns"] = metric{t.perUnit("ssn.sens"), "ns"}
	m["ssn.kernel.ns_per_point"] = metric{t.perUnit("ssn.kernel"), "ns"}
	m["sweep.run_ns_per_point"] = metric{t.perUnit("sweep.run"), "ns"}
	for _, name := range []string{"sweep-ndjson", "sweep-ssnc"} {
		hr := handlers[name]
		h := sum(hr.ms) * 1e6
		run := 0.0
		for i := range hr.ms {
			run += t.reqSum(fmt.Sprintf("%s/%d", name, i), []string{"sweep.run"})
		}
		m["sweep.encode_share."+name[len("sweep-"):]] = metric{(h - run) / h, "ratio"}
	}
	m["colwire.encode_ns_per_row"] = metric{t.perUnit("colwire.encode"), "ns"}
	m["pkgmodel.build_us"] = metric{t.perSpan("pkgmodel.build") / 1e3, "us"}
	m["spice.ac.unknowns"] = metric{mean(t.counts["spice.ac.unknowns"]), "count"}
	m["spice.ac.compile_us"] = metric{t.perSpan("spice.ac.compile") / 1e3, "us"}
	solve := t.perSpan("spice.ac.impedance_repeat")
	m["spice.ac.refactor_us"] = metric{(t.perSpan("spice.ac.impedance_new") - solve) / 1e3, "us"}
	m["spice.ac.solve_us"] = metric{solve / 1e3, "us"}
	m["spice.ac.adjoint_us"] = metric{(t.perSpan("spice.ac.impedance_sens") - t.perSpan("spice.ac.sens_base")) / 1e3, "us"}
	m["pdn.new_sweeper_us"] = metric{t.perSpan("pdn.new_sweeper") / 1e3, "us"}
	m["pdn.run_profile_ms"] = metric{t.perSpan("pdn.run_profile") / 1e6, "ms"}
	m["pdn.parallel_efficiency"] = metric{t.perSpan("pdn.run_profile.w1") /
		(float64(b.nproc) * t.perSpan("pdn.run_profile.wn")), "ratio"}
	m["pdn.optimize_ms"] = metric{t.perSpan("pdn.optimize") / 1e6, "ms"}
	m["pdn.optimize.placements"] = metric{mean(t.counts["pdn.optimize.placements"]), "count"}
	m["oracle.generate_us"] = metric{t.perSpan("oracle.generate") / 1e3, "us"}
	m["oracle.build_deck_us"] = metric{t.perSpan("oracle.build_deck") / 1e3, "us"}
	m["spice.tran.compile_us"] = metric{t.perSpan("spice.tran.compile") / 1e3, "us"}
	m["spice.tran_ms"] = metric{t.perSpan("spice.tran") / 1e6, "ms"}
	m["spice.tran.steps"] = metric{mean(t.counts["spice.tran.steps"]), "count"}
	m["spice.tran.us_per_step"] = metric{t.perUnit("spice.tran") / 1e3, "us"}
	checkNS, _, _ := t.agg("oracle.check")
	runNS, _, _ := t.agg("oracle.run")
	m["oracle.parallel_efficiency"] = metric{checkNS / (float64(b.nproc) * runNS), "ratio"}
	return res, nil
}

// serverMS is the mean server-side time per request of a round: the
// Δsum/Δcount of the route's request-duration series for serve, the
// child-reported oracle.Run time for the oracle.
func (b *bench) serverMS(r roundResult) float64 {
	if b.w.child != childServe {
		ns := 0.0
		for _, s := range r.samples {
			ns += float64(s.runNS)
		}
		return ns / float64(len(r.samples)) / 1e6
	}
	label := fmt.Sprintf("{path=%q}", b.w.path)
	secs := sumPrefix(r.before, r.after, "ssnserve_request_duration_seconds_sum"+label)
	count := sumPrefix(r.before, r.after, "ssnserve_request_duration_seconds_count"+label)
	return secs / count * 1e3
}
