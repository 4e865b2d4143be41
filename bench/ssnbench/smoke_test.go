package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if kind := os.Getenv(childEnv); kind != "" {
		if err := childMain(kind); err != nil {
			fmt.Fprintln(os.Stderr, "child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	endToEndUnits = map[string]string{"setup_s": "s", "ops_per_s": "ops/s",
		"latency_p50_ms": "ms", "peak_rss_mb": "MB"}
	perLayerNames = []string{"server_ms_mean", "handler_ms_p50", "transport_ms_p50",
		"overhead_ms_p50", "resp_bytes_per_op", "cpu_ms_per_op", "trace.overhead_ratio",
		"serve.extract_cache.hit_ratio", "serve.profile_cache.hit_ratio",
		"serve.plan_cache.hit_ns", "serve.plan_cache.miss_ns", "device.extract_ms",
		"ssn.plan.compile_ns", "ssn.sens_ns", "ssn.kernel.ns_per_point",
		"sweep.run_ns_per_point", "sweep.encode_share.ndjson", "sweep.encode_share.ssnc",
		"colwire.encode_ns_per_row", "pkgmodel.build_us", "spice.ac.unknowns",
		"spice.ac.compile_us", "spice.ac.refactor_us", "spice.ac.solve_us",
		"spice.ac.adjoint_us", "pdn.new_sweeper_us", "pdn.run_profile_ms",
		"pdn.parallel_efficiency", "pdn.optimize_ms", "pdn.optimize.placements",
		"oracle.generate_us", "oracle.build_deck_us", "spice.tran.compile_us",
		"spice.tran_ms", "spice.tran.steps", "spice.tran.us_per_step",
		"oracle.parallel_efficiency"}
)

// runQuick runs the benchmark entry point and returns its parsed result
// and its standard output.
func runQuick(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-quick", "-seed", "3"), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result: %v", args, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: %+v", args, res)
	}
	return res, stdout.String()
}

// TestQuickEveryWorkload runs every workload for a few ops against real
// children and checks that every end-to-end metric is printed with its
// unit and that nothing failed.
func TestQuickEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res, out := runQuick(t, "-workload", w.name)
		perRequest := 1
		if w.child == childOracle {
			perRequest = oracleChunk // an oracle op is a design point
		}
		if want := rounds * 2 * perRequest; res.Attempted != want {
			t.Errorf("%s: %d ops attempted, want %d", w.name, res.Attempted, want)
		}
		if len(res.Metrics) != len(endToEndUnits) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEndUnits))
		}
		for name, unit := range endToEndUnits {
			m, ok := res.Metrics[name]
			if !ok || m.Unit != unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.name, name, m, unit)
			}
			if !strings.Contains(out, name) || !strings.Contains(out, " "+unit+"\n") {
				t.Errorf("%s: %s with unit %s not printed", w.name, name, unit)
			}
		}
	}
}

func TestQuickTraced(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	res, _ := runQuick(t, "-workload", "sweep-ssnc", "-trace", "1", "-spans", spans)
	for _, name := range perLayerNames {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	if len(res.Metrics) != len(perLayerNames) {
		t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayerNames))
	}
	// Recording a span makes a request slower, never faster.
	if r := res.Metrics["trace.overhead_ratio"].Value; !(r > 0 && r < 1) {
		t.Errorf("trace.overhead_ratio %v, want within (0, 1)", r)
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	children := 0
	for _, s := range doc.Spans {
		if s.Self < 0 || s.End < s.Start {
			t.Errorf("span %+v: negative duration or self time", s)
		}
		if s.Parent != 0 {
			children++
			if p := doc.Spans[s.Parent-1]; p.Req != s.Req {
				t.Errorf("span %d of %s names parent %d of %s", s.ID, s.Req, p.ID, p.Req)
			}
		}
	}
	if children == 0 {
		t.Error("no child spans written")
	}
}

// TestReplayRunsAtChildProcs checks that the traced run's in-process
// replay runs at the child's GOMAXPROCS, not at the parent's one proc, and
// that the parent's setting is back afterwards.
func TestReplayRunsAtChildProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := workloadByName("sweep-ssnc")
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(w, 1, 1, true)
	b.procs = 3
	orig := layers[w.name]
	defer func() { layers[w.name] = orig }()
	var got []int
	lp := orig
	lp.direct = func(tr *tracer, ev *evaluator, req string, root int, rq request) error {
		got = append(got, runtime.GOMAXPROCS(0))
		return orig.direct(tr, ev, req, root, rq)
	}
	layers[w.name] = lp
	warm, meas := w.generate(1, 1, 2)
	if _, err := b.replay(newTracer(), newEvaluator(b.procs), w, warm, meas, nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(meas) {
		t.Fatalf("%d direct replays, want %d", len(got), len(meas))
	}
	for i, procs := range got {
		if procs != b.procs {
			t.Errorf("direct replay %d ran at GOMAXPROCS %d, want %d", i, procs, b.procs)
		}
	}
	if procs := runtime.GOMAXPROCS(0); procs != 1 {
		t.Errorf("GOMAXPROCS %d after the replay, want the parent's 1", procs)
	}
}

// liveChildren counts this process's child processes that have not been
// reaped, from /proc.
func liveChildren(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	n := 0
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(f) > 1 && f[1] == strconv.Itoa(os.Getpid()) {
			n++
		}
	}
	return n
}

func TestChildLifecycle(t *testing.T) {
	before := liveChildren(t)
	client := newClient()
	defer client.CloseIdleConnections()
	ch, setup, err := spawn(childServe, 1, client)
	if err != nil {
		t.Fatal(err)
	}
	if !(setup > 0) || !strings.HasPrefix(ch.base, "http://127.0.0.1:") {
		t.Errorf("setup %v, address %q", setup, ch.base)
	}
	if _, err := ch.cpuSeconds(); err != nil {
		t.Error(err)
	}
	if _, err := scrape(client, ch.base); err != nil {
		t.Error(err)
	}
	rss, err := ch.peakRSS()
	if err != nil || !(rss > 1) {
		t.Errorf("peak RSS %v MB: %v", rss, err)
	}
	client.CloseIdleConnections()
	if err := ch.stop(); err != nil {
		t.Fatal(err)
	}
	if ws, ok := ch.cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Exited() || ws.ExitStatus() != 0 {
		t.Errorf("child did not drain and exit 0 on SIGTERM: %v", ch.cmd.ProcessState)
	}
	if got := liveChildren(t); got != before {
		t.Errorf("%d children alive after stop, want %d", got, before)
	}
}

func TestNoOrphansOnError(t *testing.T) {
	before := liveChildren(t)
	// A child that fails before reporting its address.
	if _, _, err := spawn("no-such-kind", 1, newClient()); err == nil {
		t.Error("spawn of an unknown child kind succeeded")
	}
	// A round whose warm-up fails: the child must be killed and reaped.
	w := *workloads[0]
	w.path = "/v1/no-such-route"
	b := newBench(&w, 1, 1, true)
	if _, err := b.round(take(b.next, 2), make([]reply, 2), nil); err == nil {
		t.Error("round against a missing route succeeded")
	}
	if got := liveChildren(t); got != before {
		t.Errorf("%d children alive after failed rounds, want %d", got, before)
	}
}

// TestOneCPU checks that a bound process has every thread, and the
// children it spawns, on one CPU of its mask, and that restore gives the
// mask back.
func TestOneCPU(t *testing.T) {
	all, err := getAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	restore, err := oneCPU()
	if err != nil {
		t.Fatal(err)
	}
	var one cpuMask
	one[all.last()/64] = 1 << (all.last() % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		tid, _ := strconv.Atoi(task.Name())
		if m, err := getAffinity(tid); err == nil && m != one {
			t.Errorf("thread %d not bound to CPU %d", tid, all.last())
		}
	}
	client := newClient()
	ch, _, err := spawn(childServe, 1, client)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := getAffinity(ch.cmd.Process.Pid); err != nil || m != one {
		t.Errorf("child not bound to CPU %d: %v", all.last(), err)
	}
	client.CloseIdleConnections()
	if err := ch.stop(); err != nil {
		t.Error(err)
	}
	if err := restore(); err != nil {
		t.Fatal(err)
	}
	if m, err := getAffinity(0); err != nil || m != all {
		t.Errorf("mask not restored: %v", err)
	}
}

// TestRefLoop checks that the reference loop allocates nothing and keeps
// to its share of the request time.
func TestRefLoop(t *testing.T) {
	r := newRefLoop()
	if n := testing.AllocsPerRun(10, r.run); n != 0 {
		t.Errorf("reference loop allocates %v times per run", n)
	}
	busy := time.Duration(float64(20*r.mean()) / refShare)
	r.keepUp(busy)
	if share := float64(r.total) / float64(busy); share < refShare {
		t.Errorf("reference loop took %.3f of the request time, want at least %.2f", share, refShare)
	}
	if r.speed() <= 0 {
		t.Errorf("speed %v, want positive", r.speed())
	}
}
