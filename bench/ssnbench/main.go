// Command ssnbench is the repository benchmark: seeded workloads driven
// closed-loop against a fresh ssnserve (or oracle) child process per
// round, with every reply checked bit-exactly against in-process
// evaluation through the same public functions.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload maxssn --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload oracle --seed 2 --seconds 10 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// the spans to the -spans file. Any failed check exits non-zero.
// bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if kind := os.Getenv(childEnv); kind != "" {
		if err := childMain(kind); err != nil {
			fmt.Fprintln(os.Stderr, "ssnbench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict, the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 10, "measured seconds per run, split evenly over the rounds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end rounds")
	spans := fs.String("spans", ".bench_build/spans.json", "file a traced run writes its spans to")
	quick := fs.Bool("quick", false, "a few ops per round, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*trace != 0 && *trace != 1 || !(*seconds > 0)) {
		err = errors.New("-trace must be 0 or 1 and -seconds positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "ssnbench:", err)
		return 2
	}
	// The caller drives the child from one proc; the in-process evaluation
	// and the traced run's probes raise it for their own work.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := newBench(w, uint64(*seed), *seconds, *quick)
	var res result
	if *trace == 1 {
		res, err = b.traced(*spans)
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "ssnbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s seed %d: %d ops attempted, %d failed\n", w.name, *seed, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "  %-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "ssnbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// rounds is the number of fresh children an end-to-end run measures. Each
// round has its own reference-speed factor (refloop.go), so the host's
// drift within a run is corrected round by round.
const rounds = 10

// setupSpawns is the children a round starts to time set-up; all but the
// last are stopped at once. Set-up takes milliseconds, so extra samples
// cost little and steady its median.
const setupSpawns = 3

// bench holds one run's settings and request streams.
type bench struct {
	w        *workload
	seed     uint64
	nproc    int // CPUs, for the in-process evaluation and the probes
	procs    int // the child's GOMAXPROCS: 1, as it shares one CPU with the caller
	quick    bool
	perRound int            // measured requests per round
	warm     []request      // sent before every round's measured requests
	next     func() request // the measured stream
}

func newBench(w *workload, seed uint64, seconds float64, quick bool) *bench {
	nproc := runtime.NumCPU()
	warmup, perRound := w.warmup, int(math.Ceil(w.rate*seconds/float64(rounds)))
	if quick {
		warmup, perRound = 1, 2
	}
	return &bench{w: w, seed: seed, nproc: nproc, procs: 1, quick: quick,
		perRound: perRound,
		warm:     take(w.sampler(seed, streamWarmup), warmup),
		next:     w.sampler(seed, streamMeasured)}
}

// batch draws the next n measured requests and computes their expected
// replies, before any timing starts. Each round measures its own batch, so
// a run covers as many distinct inputs as it sends, and the parent holds
// one round's requests at a time.
func (b *bench) batch(n int) ([]request, []reply, error) {
	reqs := take(b.next, n)
	want, err := b.prepare(reqs)
	return reqs, want, err
}

// prepare evaluates reqs in process on every CPU; repeated (hot) requests
// are evaluated once.
func (b *bench) prepare(reqs []request) ([]reply, error) {
	want := make([]reply, len(reqs))
	first := map[string]int{} // body -> index of its first occurrence
	var todo []int
	for i, rq := range reqs {
		if _, ok := first[string(rq.body)]; !ok {
			first[string(rq.body)] = i
			todo = append(todo, i)
		}
	}
	ev := newEvaluator(b.procs)
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	err := withProcs(b.nproc, func() error {
		for c := 0; c < b.nproc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1) - 1); k < len(todo); k = int(next.Add(1) - 1) {
					i := todo[k]
					want[i], errs[i] = b.w.expect(ev, reqs[i])
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: in-process evaluation: %w", b.w.name, err)
	}
	for i, rq := range reqs {
		want[i] = want[first[string(rq.body)]]
	}
	return want, nil
}

// roundResult is what one fresh child measured.
type roundResult struct {
	setups  []float64 // s, spawn to first /healthz 200, per spawned child
	samples []sample
	speed   float64 // scales the round's times to reference speed (refloop.go)
	cpu     float64 // child CPU seconds in the measured phase
	rss     float64 // child peak RSS, MiB
	before  map[string]float64
	after   map[string]float64
}

func (r *roundResult) ops() (ops, failed int) {
	for _, s := range r.samples {
		ops += s.ops
		if s.err != nil {
			failed += s.ops
		}
	}
	return ops, failed
}

// busy is the time the round's measured requests were in flight, in s:
// the caller's own checking between requests is left out.
func (r *roundResult) busy() float64 {
	var d time.Duration
	for _, s := range r.samples {
		d += s.lat
	}
	return d.Seconds()
}

// round runs one child through spawn, warm-up, the measured requests
// (checked against want), a /metrics delta, its peak RSS and SIGTERM, with
// this process and the child bound to one CPU. Client spans go to tr when
// non-nil.
func (b *bench) round(reqs []request, want []reply, tr *tracer) (roundResult, error) {
	var rr roundResult
	// Collect the generation and evaluation garbage now, so the caller
	// does not pay it back while driving the round.
	runtime.GC()
	restore, err := oneCPU()
	if err != nil {
		return rr, err
	}
	defer func() {
		if err := restore(); err != nil {
			fmt.Fprintln(os.Stderr, "ssnbench: restoring the CPU mask:", err)
		}
	}()
	client := newClient()
	defer client.CloseIdleConnections()
	for i := 1; i < setupSpawns; i++ {
		c, setup, err := spawn(b.w.child, b.procs, client)
		if err != nil {
			return rr, err
		}
		rr.setups = append(rr.setups, setup.Seconds())
		client.CloseIdleConnections()
		if err := c.stop(); err != nil {
			return rr, err
		}
	}
	ch, setup, err := spawn(b.w.child, b.procs, client)
	if err != nil {
		return rr, err
	}
	defer ch.kill()
	rr.setups = append(rr.setups, setup.Seconds())
	warm, _ := drive(client, ch.base, b.w, b.warm, nil, nil)
	for i, s := range warm {
		if s.err != nil {
			return rr, fmt.Errorf("%s warm-up request %d: %w", b.w.name, i, s.err)
		}
	}
	if b.w.child == childServe {
		if rr.before, err = scrape(client, ch.base); err != nil {
			return rr, err
		}
	}
	cpu0, err := ch.cpuSeconds()
	if err != nil {
		return rr, err
	}
	var ref *refLoop
	rr.samples, ref = drive(client, ch.base, b.w, reqs, want, tr)
	rr.speed = ref.speed()
	cpu1, err := ch.cpuSeconds()
	if err != nil {
		return rr, err
	}
	rr.cpu = cpu1 - cpu0
	if b.w.child == childServe {
		if rr.after, err = scrape(client, ch.base); err != nil {
			return rr, err
		}
	}
	if rr.rss, err = ch.peakRSS(); err != nil {
		return rr, err
	}
	client.CloseIdleConnections()
	return rr, ch.stop()
}

// tally folds rounds into the attempted/failed counts and a verdict. A
// shed request (429) already fails its sample; the admission counter must
// agree.
func (b *bench) tally(rs []roundResult) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for i := range rs {
		ops, failed := rs[i].ops()
		res.Attempted += ops
		res.Failed += failed
		if shed := sumPrefix(rs[i].before, rs[i].after, "ssnserve_admission_shed_total"); shed != 0 {
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res
}

// firstError reports the first failed sample, for the log.
func firstError(rs []roundResult) error {
	for _, r := range rs {
		for i, s := range r.samples {
			if s.err != nil {
				return fmt.Errorf("request %d: %w", i, s.err)
			}
		}
	}
	return nil
}

// latenciesMS pools the measured latencies of rounds, in ms.
func latenciesMS(rs []roundResult) []float64 {
	var lat []float64
	for _, r := range rs {
		for _, s := range r.samples {
			lat = append(lat, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	return lat
}

// scaledMS pools the latencies of rounds scaled to reference speed, in ms.
func scaledMS(rs []roundResult) []float64 {
	var lat []float64
	for _, r := range rs {
		for _, s := range r.samples {
			lat = append(lat, float64(s.lat.Nanoseconds())/1e6*r.speed)
		}
	}
	return lat
}

// endToEnd runs the untraced rounds and reports the end-to-end metrics.
// Every time is scaled to reference speed with its round's factor
// (refloop.go); the raw numbers go to standard error. Tail percentiles
// stay out of the end-to-end set: they read the host's slow stretches
// more than the code.
func (b *bench) endToEnd() (result, error) {
	var rs []roundResult
	var setup, rawSetup, rss []float64
	ops, busy, rawBusy := 0, 0.0, 0.0
	for r := 0; r < rounds; r++ {
		reqs, want, err := b.batch(b.perRound)
		if err != nil {
			return result{}, err
		}
		rr, err := b.round(reqs, want, nil)
		if err != nil {
			return result{}, fmt.Errorf("%s round %d: %w", b.w.name, r+1, err)
		}
		rs = append(rs, rr)
		n, _ := rr.ops()
		ops += n
		busy += rr.busy() * rr.speed
		rawBusy += rr.busy()
		for _, s := range rr.setups {
			setup = append(setup, s*rr.speed)
		}
		rawSetup = append(rawSetup, rr.setups...)
		rss = append(rss, rr.rss)
		fmt.Fprintf(os.Stderr, "ssnbench: %s round %d: speed %.3f; scaled: setup %.4fs, %.6g ops/s, p50 %.4gms; cpu %.3gs, rss %.4gMB\n",
			b.w.name, r+1, rr.speed, median(rr.setups)*rr.speed, float64(n)/(rr.busy()*rr.speed),
			quantile(scaledMS(rs[r:]), 0.5), rr.cpu, rr.rss)
	}
	res := b.tally(rs)
	if err := firstError(rs); err != nil {
		fmt.Fprintf(os.Stderr, "ssnbench: %s: %v\n", b.w.name, err)
	}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	res.Metrics["ops_per_s"] = metric{float64(ops) / busy, "ops/s"}
	res.Metrics["latency_p50_ms"] = metric{quantile(scaledMS(rs), 0.5), "ms"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	lat := latenciesMS(rs)
	fmt.Fprintf(os.Stderr, "ssnbench: %s: raw, not scaled and not gated: setup %.4gs, %.6g ops/s, p50 %.4gms, p95 %.4gms (%d beyond), p99 %.4gms (%d beyond)\n",
		b.w.name, median(rawSetup), float64(ops)/rawBusy, quantile(lat, 0.5),
		quantile(lat, 0.95), beyond(lat, 0.95), quantile(lat, 0.99), beyond(lat, 0.99))
	return res, nil
}
