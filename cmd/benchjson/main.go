// Command benchjson turns `go test -bench` output into a stable JSON
// baseline and gates regressions against a committed one.
//
// Parse mode reads benchmark text on stdin and emits JSON:
//
//	go test -run XX -bench Transient -benchtime=100x -count=3 . | benchjson -parse > new.json
//
// Repeated counts of the same benchmark collapse to the minimum ns/op (the
// least-noise estimate); allocs/op and B/op are recorded alongside when the
// benchmark reports them (-benchmem or b.ReportAllocs). Batch benchmarks that report the
// custom "ns/point" metric (b.ReportMetric) additionally get ns_per_point
// and the derived points_per_op — the op size — so a baseline documents both
// how big one op is and what each point costs. Check mode compares a freshly
// parsed file against a committed baseline and exits nonzero when any shared
// benchmark runs slower than maxRatio times its baseline, or — for baseline
// entries carrying max_allocs_per_op or max_bytes_per_op — allocates more
// objects or more bytes than that cap per op (allocation counts are
// deterministic, so the caps gate exactly; 0 pins a kernel to
// zero-allocation). Baselines with ns_per_point gate on the
// per-point ratio instead of the per-op one, so a kernel regression cannot
// hide behind (or be faked by) a change in op size:
//
//	benchjson -check new.json -against BENCH_spice.json -max-ratio 2
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's record. SeedNsPerOp preserves the pre-optimization
// number when the baseline documents a before/after pair. AllocsPerOp and
// BytesPerOp are present when the benchmark reported allocations;
// MaxAllocsPerOp and MaxBytesPerOp, set only in committed baselines, make
// -check fail when the fresh run allocates more objects or more bytes per
// op than the cap (0 = the benchmark must stay allocation-free).
// NsPerPoint carries the benchmark's custom "ns/point" metric for batch
// kernels, with PointsPerOp — the op size — derived from it; when a baseline
// has NsPerPoint, -check gates on the per-point ratio rather than the
// per-op one.
type Entry struct {
	NsPerOp        float64  `json:"ns_per_op"`
	SeedNsPerOp    float64  `json:"seed_ns_per_op,omitempty"`
	NsPerPoint     *float64 `json:"ns_per_point,omitempty"`
	PointsPerOp    *float64 `json:"points_per_op,omitempty"`
	AllocsPerOp    *float64 `json:"allocs_per_op,omitempty"`
	MaxAllocsPerOp *float64 `json:"max_allocs_per_op,omitempty"`
	BytesPerOp     *float64 `json:"bytes_per_op,omitempty"`
	MaxBytesPerOp  *float64 `json:"max_bytes_per_op,omitempty"`
}

// File is the schema shared by parsed output and the committed baseline.
type File struct {
	Note       string           `json:"note,omitempty"`
	Benchtime  string           `json:"benchtime,omitempty"`
	Count      int              `json:"count,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func main() {
	parse := flag.Bool("parse", false, "read `go test -bench` text on stdin, write JSON to stdout")
	check := flag.String("check", "", "JSON `file` of fresh results to gate")
	against := flag.String("against", "BENCH_spice.json", "baseline JSON `file` for -check")
	maxRatio := flag.Float64("max-ratio", 2, "fail when fresh ns/op exceeds baseline by this factor")
	flag.Parse()

	switch {
	case *parse:
		if err := runParse(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	case *check != "":
		ok, err := runCheck(os.Stdout, *check, *against, *maxRatio)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runParse(in io.Reader, w io.Writer) error {
	out := File{Benchmarks: map[string]Entry{}}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		name, entry, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		if e, seen := out.Benchmarks[name]; !seen || entry.NsPerOp < e.NsPerOp {
			if p := entry.NsPerPoint; p != nil && *p > 0 {
				// The op size is a benchmark constant; round away the
				// float division so the baseline records it exactly.
				points := math.Round(entry.NsPerOp / *p)
				entry.PointsPerOp = &points
			} else {
				entry.NsPerPoint = nil
			}
			out.Benchmarks[name] = entry
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(out.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// parseBenchLine extracts the name and the ns/op, ns/point, B/op and
// allocs/op columns of one `go test -bench` line, e.g.
//
//	BenchmarkVMaxBatch-4   100   14205 ns/op   13.87 ns/point   0 B/op   0 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so baselines transfer across runners.
// The ns/point, B/op and allocs pointers are nil when the line lacks that
// column.
func parseBenchLine(line string) (string, Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Entry{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var e Entry
	haveNs := false
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			e.NsPerOp, haveNs = v, true
		case "ns/point":
			e.NsPerPoint = &v
		case "B/op":
			e.BytesPerOp = &v
		case "allocs/op":
			e.AllocsPerOp = &v
		}
	}
	if !haveNs {
		return "", Entry{}, false
	}
	return name, e, true
}

func readFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func runCheck(w io.Writer, freshPath, basePath string, maxRatio float64) (bool, error) {
	fresh, err := readFile(freshPath)
	if err != nil {
		return false, err
	}
	base, err := readFile(basePath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		b := base.Benchmarks[name]
		f, seen := fresh.Benchmarks[name]
		if !seen {
			fmt.Fprintf(w, "SKIP %-40s not in fresh run\n", name)
			continue
		}
		// A baseline that records ns_per_point gates on it: the per-point
		// number is invariant under op-size changes, so a kernel regression
		// cannot hide behind a smaller batch (nor a rewrite pass the gate by
		// growing one). The fresh run must then report the metric too.
		switch {
		case b.NsPerPoint != nil && f.NsPerPoint == nil:
			fmt.Fprintf(w, "FAIL %-40s baseline has ns_per_point %g but the fresh run did not report ns/point\n",
				name, *b.NsPerPoint)
			ok = false
		case b.NsPerPoint != nil:
			ratio := *f.NsPerPoint / *b.NsPerPoint
			status := "ok  "
			if ratio > maxRatio {
				status = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "%s %-40s baseline %12.2f ns/point  fresh %12.2f ns/point  ratio %.2fx\n",
				status, name, *b.NsPerPoint, *f.NsPerPoint, ratio)
		default:
			ratio := f.NsPerOp / b.NsPerOp
			status := "ok  "
			if ratio > maxRatio {
				status = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "%s %-40s baseline %12.0f ns/op  fresh %12.0f ns/op  ratio %.2fx\n",
				status, name, b.NsPerOp, f.NsPerOp, ratio)
		}
		ok = checkCap(w, name, "allocs", "/op", b.MaxAllocsPerOp, f.AllocsPerOp) && ok
		ok = checkCap(w, name, "bytes", " B/op", b.MaxBytesPerOp, f.BytesPerOp) && ok
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: regression detected (a time ratio beyond %.1fx or a cap exceeded)\n", maxRatio)
	}
	return ok, nil
}

// checkCap gates one per-op allocation count of a fresh run against the
// baseline's cap, when the baseline sets one, and reports whether it holds.
func checkCap(w io.Writer, name, what, unit string, limit, fresh *float64) bool {
	switch {
	case limit == nil:
		return true
	case fresh == nil:
		fmt.Fprintf(w, "FAIL %-40s baseline caps %s at %g%s but the fresh run reported none (run with -benchmem)\n",
			name, what, *limit, unit)
		return false
	case *fresh > *limit:
		fmt.Fprintf(w, "FAIL %-40s %s %g%s exceeds the %g%s cap\n", name, what, *fresh, unit, *limit, unit)
		return false
	}
	fmt.Fprintf(w, "ok   %-40s %s %g%s within the %g%s cap\n", name, what, *fresh, unit, *limit, unit)
	return true
}
