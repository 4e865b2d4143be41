package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, e, ok := parseBenchLine(
		"BenchmarkVMaxBatch-4   100   14205 ns/op   13.87 ns/point   0 allocs/op")
	if !ok || name != "BenchmarkVMaxBatch" || e.NsPerOp != 14205 {
		t.Fatalf("parsed %q %v ok=%v", name, e.NsPerOp, ok)
	}
	if e.NsPerPoint == nil || *e.NsPerPoint != 13.87 {
		t.Errorf("ns/point = %v, want 13.87", e.NsPerPoint)
	}
	if e.AllocsPerOp == nil || *e.AllocsPerOp != 0 {
		t.Errorf("allocs/op = %v, want 0", e.AllocsPerOp)
	}
	if e.BytesPerOp != nil {
		t.Errorf("B/op = %v on a line without the column", *e.BytesPerOp)
	}

	name, e, ok = parseBenchLine(
		"BenchmarkTransientRLC-4   100   368764 ns/op   120 B/op   3 allocs/op")
	if !ok || name != "BenchmarkTransientRLC" || e.NsPerOp != 368764 || e.NsPerPoint != nil ||
		e.AllocsPerOp == nil || *e.AllocsPerOp != 3 || e.BytesPerOp == nil || *e.BytesPerOp != 120 {
		t.Errorf("plain line: %q %+v ok=%v", name, e, ok)
	}

	for _, bad := range []string{"", "ok  \tssnkit 0.4s", "BenchmarkX-4 100"} {
		if _, _, ok := parseBenchLine(bad); ok {
			t.Errorf("parseBenchLine(%q) accepted", bad)
		}
	}
}

// TestRunParsePointsPerOp pins the derivation: ns_per_point travels into the
// JSON with the rounded op size, and repeated counts collapse to the min
// ns/op line together with its own per-point number.
func TestRunParsePointsPerOp(t *testing.T) {
	in := strings.Join([]string{
		"BenchmarkVMaxBatch-4   100   15000 ns/op   14.65 ns/point   0 allocs/op",
		"BenchmarkVMaxBatch-4   100   14205 ns/op   13.87 ns/point   0 allocs/op",
		"BenchmarkSolve-4   100   31011 ns/op   0 allocs/op",
	}, "\n")
	var buf bytes.Buffer
	if err := runParse(strings.NewReader(in), &buf); err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, buf.String())
	}
	e := f.Benchmarks["BenchmarkVMaxBatch"]
	if e.NsPerOp != 14205 || e.NsPerPoint == nil || *e.NsPerPoint != 13.87 {
		t.Fatalf("collapsed entry %+v", e)
	}
	if e.PointsPerOp == nil || *e.PointsPerOp != 1024 {
		t.Errorf("points_per_op = %v, want 1024", e.PointsPerOp)
	}
	if s := f.Benchmarks["BenchmarkSolve"]; s.NsPerPoint != nil || s.PointsPerOp != nil {
		t.Errorf("per-op benchmark grew point fields: %+v", s)
	}
}

// writeBench marshals a File into dir and returns its path.
func writeBench(t *testing.T, dir, name string, f File) string {
	t.Helper()
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fp(v float64) *float64 { return &v }

// TestRunCheckPerPoint exercises the gating matrix: per-point baselines gate
// on ns_per_point (so a halved op size with the same per-point cost passes,
// and a per-point regression fails even when ns/op improves), and a fresh
// run that dropped the metric fails outright.
func TestRunCheckPerPoint(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", File{Benchmarks: map[string]Entry{
		"BenchmarkBatch": {NsPerOp: 20000, NsPerPoint: fp(20), PointsPerOp: fp(1024)},
	}})

	cases := []struct {
		name  string
		fresh Entry
		ok    bool
		want  string
	}{
		{"same per-point, smaller op", Entry{NsPerOp: 10500, NsPerPoint: fp(20.5), PointsPerOp: fp(512)},
			true, "ns/point"},
		{"per-point regression behind better ns/op", Entry{NsPerOp: 15000, NsPerPoint: fp(60), PointsPerOp: fp(256)},
			false, "FAIL"},
		{"metric dropped", Entry{NsPerOp: 20000}, false, "did not report ns/point"},
	}
	for _, tc := range cases {
		fresh := writeBench(t, dir, "fresh.json", File{Benchmarks: map[string]Entry{
			"BenchmarkBatch": tc.fresh,
		}})
		var buf bytes.Buffer
		ok, err := runCheck(&buf, fresh, base, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", tc.name, ok, tc.ok, buf.String())
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s: output missing %q:\n%s", tc.name, tc.want, buf.String())
		}
	}
}

// TestRunCheckPerOpFallback keeps the original per-op gate for baselines
// without ns_per_point, including the alloc cap.
func TestRunCheckPerOpFallback(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", File{Benchmarks: map[string]Entry{
		"BenchmarkA": {NsPerOp: 1000, MaxAllocsPerOp: fp(0)},
	}})
	fresh := writeBench(t, dir, "fresh.json", File{Benchmarks: map[string]Entry{
		"BenchmarkA": {NsPerOp: 2500, AllocsPerOp: fp(1)},
	}})
	var buf bytes.Buffer
	ok, err := runCheck(&buf, fresh, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("check passed, want ns/op and alloc failures:\n%s", buf.String())
	}
	for _, want := range []string{"ratio 2.50x", "exceeds the 0/op cap"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunCheckBytesCap gates B/op like allocs/op: a run within the
// max_bytes_per_op cap passes, one over it fails, and one that did not
// report B/op fails rather than passing unchecked.
func TestRunCheckBytesCap(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", File{Benchmarks: map[string]Entry{
		"BenchmarkA": {NsPerOp: 1000, MaxBytesPerOp: fp(4096)},
	}})
	cases := []struct {
		name  string
		fresh Entry
		ok    bool
		want  string
	}{
		{"within", Entry{NsPerOp: 1000, BytesPerOp: fp(4096)}, true, "bytes 4096 B/op within the 4096 B/op cap"},
		{"over", Entry{NsPerOp: 1000, BytesPerOp: fp(8192)}, false, "bytes 8192 B/op exceeds the 4096 B/op cap"},
		{"missing", Entry{NsPerOp: 1000, AllocsPerOp: fp(1)}, false, "caps bytes at 4096 B/op but the fresh run reported none"},
	}
	for _, tc := range cases {
		fresh := writeBench(t, dir, "fresh.json", File{Benchmarks: map[string]Entry{"BenchmarkA": tc.fresh}})
		var buf bytes.Buffer
		ok, err := runCheck(&buf, fresh, base, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.ok || !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s: ok = %v, want %v with %q:\n%s", tc.name, ok, tc.ok, tc.want, buf.String())
		}
	}
}
