package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testSpec is a 3-axis grid with deliberately awkward numbers: 5*7*11 =
// 385 points over a shard size of 32 gives 13 shards with a short tail.
func testSpec() SweepSpec {
	return SweepSpec{
		Base: BaseParams{
			N: 16, K: 4e-3, V0: 0.6, A: 1.2,
			Vdd: 1.8, Slope: 1.8e9, L: 1.25e-9, C: 2e-12,
		},
		Axes: []Axis{
			{Name: "n", From: 1, To: 64, Points: 5},
			{Name: "l", From: 5e-10, To: 8e-9, Points: 7},
			{Name: "c", From: 0, To: 5e-12, Points: 11},
		},
		ShardPoints: 32,
	}
}

func TestShardDecomposition(t *testing.T) {
	spec := testSpec()
	if got := spec.Total(); got != 385 {
		t.Fatalf("Total = %d, want 385", got)
	}
	if got := spec.NumShards(); got != 13 {
		t.Fatalf("NumShards = %d, want 13", got)
	}
	covered := 0
	for i := 0; i < spec.NumShards(); i++ {
		lo, hi := spec.ShardRange(i)
		if lo != covered || hi <= lo {
			t.Fatalf("shard %d = [%d,%d); want contiguous from %d", i, lo, hi, covered)
		}
		covered = hi
	}
	if covered != spec.Total() {
		t.Fatalf("shards cover %d points, want %d", covered, spec.Total())
	}
	if spec.Fingerprint() != spec.Fingerprint() {
		t.Error("fingerprint is not deterministic")
	}
	other := testSpec()
	other.Axes[0].Points = 6
	if spec.Fingerprint() == other.Fingerprint() {
		t.Error("different grids share a fingerprint")
	}
	// Zero shard points and the explicit default are the same decomposition.
	a, b := testSpec(), testSpec()
	a.ShardPoints = 0
	b.ShardPoints = DefaultShardPoints
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("zero and default shard_points fingerprint differently")
	}
}

// baseline evaluates the whole grid in one EvalRange call: the
// single-process reference stream every distributed run must match.
func baseline(t *testing.T, spec SweepSpec) []byte {
	t.Helper()
	full, err := EvalRange(context.Background(), spec, 0, spec.Total(), EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("baseline payload is empty")
	}
	return full
}

// TestShardConcatenationIsByteIdentical pins the core invariant: shard
// payloads evaluated independently (varying worker counts) concatenate to
// the exact bytes of the full-range evaluation.
func TestShardConcatenationIsByteIdentical(t *testing.T) {
	spec := testSpec()
	full := baseline(t, spec)
	var merged bytes.Buffer
	for i := 0; i < spec.NumShards(); i++ {
		p, err := EvalShard(context.Background(), spec, i, EvalConfig{Workers: 1 + i%3})
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		merged.Write(p)
	}
	if !bytes.Equal(full, merged.Bytes()) {
		t.Fatalf("merged shards != full run (%d vs %d bytes)", merged.Len(), len(full))
	}
	// Every line parses as a point record, errors in place included.
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	if len(lines) != spec.Total() {
		t.Fatalf("%d NDJSON lines, want %d", len(lines), spec.Total())
	}
	var rec wireRecord
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("first record: %v", err)
	}
}

func TestCoordinatorInProcess(t *testing.T) {
	spec := testSpec()
	full := baseline(t, spec)
	var out bytes.Buffer
	sum, err := Run(context.Background(), spec, Options{}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, out.Bytes()) {
		t.Fatal("in-process coordinator output != baseline")
	}
	if sum.Points != spec.Total() || sum.Shards != spec.NumShards() {
		t.Fatalf("summary %+v", sum)
	}
}

// wireRecord decodes the point records EvalRange emits.
type wireRecord struct {
	Values map[string]float64 `json:"values"`
	VMax   float64            `json:"vmax"`
	Error  *RecordError       `json:"error"`
}

// shardHandler is a minimal in-test /v1/shard worker.
func shardHandler(t *testing.T) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p, err := EvalShard(r.Context(), req.Spec, req.Shard, EvalConfig{})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(p)
	}
}

// TestCoordinatorTwoWorkers runs the grid over two replicas. Each replica
// holds its requests until the other has received one, so a fast replica
// cannot drain all 13 shards before the other's first request arrives,
// and both must complete shards.
func TestCoordinatorTwoWorkers(t *testing.T) {
	spec := testSpec()
	full := baseline(t, spec)
	got := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var once [2]sync.Once
	replica := func(me int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			once[me].Do(func() { close(got[me]) })
			select {
			case <-got[1-me]:
			case <-time.After(10 * time.Second):
				t.Errorf("replica %d: the other replica received no request in 10s", me+1)
				http.Error(w, "no peer request", http.StatusServiceUnavailable)
				return
			}
			shardHandler(t)(w, r)
		}))
	}
	w1, w2 := replica(0), replica(1)
	defer w1.Close()
	defer w2.Close()

	tracker := NewTracker()
	var out bytes.Buffer
	sum, err := Run(context.Background(), spec, Options{
		Workers: []string{w1.URL, w2.URL},
		Tracker: tracker,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, out.Bytes()) {
		t.Fatal("2-worker merged output != baseline")
	}
	p := tracker.Snapshot()
	if !p.Done || p.ShardsDone != spec.NumShards() || p.PointsDone != int64(spec.Total()) {
		t.Fatalf("tracker %+v", p)
	}
	both := 0
	for _, w := range p.Workers {
		if w.Shards > 0 {
			both++
		}
	}
	if both != 2 {
		t.Errorf("expected both replicas to complete shards: %+v", p.Workers)
	}
	if sum.Retries != 0 {
		t.Errorf("healthy replicas retried %d times", sum.Retries)
	}
}

// TestCoordinatorFailover pins failover: one replica 500s every request
// (and, for extra spice, one shard 429s once on the healthy replica); the
// run still completes with baseline-identical bytes.
func TestCoordinatorFailover(t *testing.T) {
	spec := testSpec()
	full := baseline(t, spec)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()
	var shed atomic.Bool
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if shed.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		shardHandler(t)(w, r)
	}))
	defer healthy.Close()

	var out bytes.Buffer
	sum, err := Run(context.Background(), spec, Options{
		Workers: []string{dead.URL, healthy.URL},
		Retries: 50, // the dead replica burns attempts; keep the budget roomy
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, out.Bytes()) {
		t.Fatal("failover output != baseline")
	}
	if sum.Retries == 0 {
		t.Error("expected retries against the dead replica")
	}
}

// TestCoordinatorAllWorkersDead pins the failure path: when every attempt
// fails the run errors out instead of hanging.
func TestCoordinatorAllWorkersDead(t *testing.T) {
	spec := testSpec()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()
	var out bytes.Buffer
	_, err := Run(context.Background(), spec, Options{
		Workers: []string{dead.URL},
		Retries: 3,
	}, &out)
	if err == nil {
		t.Fatal("expected an error with every replica failing")
	}
}

// failAfter simulates a coordinator crash deterministically: the output
// path dies after n successful shard writes, killing the run after the
// checkpoint has durably committed at least those shards.
type failAfter struct {
	n      int
	writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.writes >= f.n {
		return 0, fmt.Errorf("simulated crash after %d shards", f.n)
	}
	f.writes++
	return len(p), nil
}

// TestKillAndResume pins crash recovery end to end: a first run dies
// mid-flight, a second run with Resume replays the committed shards and
// computes the rest, and the concatenated output is byte-identical to an
// uninterrupted run.
func TestKillAndResume(t *testing.T) {
	spec := testSpec()
	full := baseline(t, spec)
	dir := t.TempDir()

	_, err := Run(context.Background(), spec, Options{Checkpoint: dir}, &failAfter{n: 4})
	if err == nil {
		t.Fatal("crashed run reported success")
	}

	// Second run: resume. Output bytes must equal the baseline, and some
	// shards must come from the checkpoint rather than recomputation.
	var out bytes.Buffer
	sum, err := Run(context.Background(), spec, Options{
		Checkpoint: dir,
		Resume:     true,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, out.Bytes()) {
		t.Fatalf("resumed output != baseline (%d vs %d bytes)", out.Len(), len(full))
	}
	if sum.Reused == 0 {
		t.Error("resume reused no shards")
	}
	if sum.Points != spec.Total() {
		t.Errorf("resumed run emitted %d points, want %d", sum.Points, spec.Total())
	}
}

// TestResumeRefusesDifferentSpec pins the fingerprint guard: a checkpoint
// written under one grid cannot silently season a different one.
func TestResumeRefusesDifferentSpec(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	var out bytes.Buffer
	if _, err := Run(context.Background(), spec, Options{Checkpoint: dir}, &out); err != nil {
		t.Fatal(err)
	}
	other := testSpec()
	other.Axes[0].Points = 7
	out.Reset()
	if _, err := Run(context.Background(), other, Options{Checkpoint: dir, Resume: true}, &out); err == nil {
		t.Fatal("resume under a different spec succeeded")
	}
}

// TestResolvedNInPayload pins the wire contract for the n axis: the
// payload records the resolved driver count (rounded, clamped to >= 1) —
// the number the model actually evaluated — not the raw grid value, and
// that substitution is identical on every replica.
func TestResolvedNInPayload(t *testing.T) {
	spec := testSpec()
	spec.Axes = []Axis{{Name: "n", From: -5, To: 5, Points: 3}} // -5 clamps to 1
	payload, err := EvalRange(context.Background(), spec, 0, spec.Total(), EvalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(payload, []byte("\n")), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	var first, last wireRecord
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[2], &last); err != nil {
		t.Fatal(err)
	}
	if first.Error != nil || first.Values["n"] != 1 {
		t.Errorf("n = -5 should resolve to 1: %+v", first)
	}
	if last.Error != nil || last.Values["n"] != 5 || last.VMax <= 0 {
		t.Errorf("n = 5 should evaluate: %+v", last)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []func(*SweepSpec){
		func(s *SweepSpec) { s.Axes = nil },
		func(s *SweepSpec) { s.Axes[0].Name = "zz" },
		func(s *SweepSpec) { s.Axes[1].From = 0 },  // l domain
		func(s *SweepSpec) { s.Axes[2].From = -1 }, // c domain
		func(s *SweepSpec) { s.ShardPoints = -1 },
		func(s *SweepSpec) {
			s.Axes = append(s.Axes, Axis{Name: "size", From: 1, To: 4, Points: 4}) // no extract
		},
	}
	for i, mut := range bad {
		spec := testSpec()
		mut(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted an invalid spec", i)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestShardRequestRoundTrip(t *testing.T) {
	body, err := shardRequestBody(testSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var req ShardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if req.Shard != 7 || req.Spec.Fingerprint() != testSpec().Fingerprint() {
		t.Fatalf("round trip lost information: %+v", req)
	}
}
