package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"ssnkit/internal/ssn"
)

// refRecord is the per-point record the streamed routes encoded through
// encoding/json before PointEncoder: the reference PointEncoder must
// match byte for byte.
type refRecord struct {
	Values   map[string]float64 `json:"values"`
	VMax     float64            `json:"vmax,omitempty"`
	Case     string             `json:"case,omitempty"`
	CaseCode int                `json:"case_code,omitempty"`
	Depth    int                `json:"depth,omitempty"`
	Error    *refError          `json:"error,omitempty"`
}

// refError has the shape of the service's error object.
type refError struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	Field      string `json:"field,omitempty"`
	Value      any    `json:"value,omitempty"`
	Constraint string `json:"constraint,omitempty"`
}

// valueError is a point error carrying an arbitrary wire value.
type valueError struct {
	msg   string
	value any
}

func (e *valueError) Error() string { return e.msg }

// toRefError maps point errors the way the service does: structure is
// lifted out of ssn.ValidationError (and valueError) when present.
func toRefError(err error) *refError {
	var ve *ssn.ValidationError
	if errors.As(err, &ve) {
		return &refError{Code: "invalid_params", Message: ve.Error(),
			Field: ve.Field, Value: ve.Value, Constraint: ve.Constraint}
	}
	var xe *valueError
	if errors.As(err, &xe) {
		return &refError{Code: "invalid_params", Message: xe.msg, Field: "n",
			Value: xe.value, Constraint: "0 < n <= 4 && <odd>"}
	}
	return &refError{Code: "invalid_request", Message: err.Error()}
}

// refEncode encodes pt the reference way.
func refEncode(axes []Axis, pt Point) ([]byte, error) {
	rec := refRecord{Values: make(map[string]float64, len(axes)), Depth: pt.Depth}
	for k, ax := range axes {
		v := pt.Values[k]
		if ax.Name == AxisN && pt.Err == nil {
			v = float64(DriverCount(v))
		}
		rec.Values[ax.Name] = v
	}
	if pt.Err != nil {
		rec.Error = toRefError(pt.Err)
	} else {
		rec.VMax = pt.VMax
		rec.Case = pt.Case.String()
		rec.CaseCode = int(pt.Case)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(&rec)
	return buf.Bytes(), err
}

// checkAppend compares PointEncoder with the reference on one point:
// same bytes, or the same error text with nothing appended.
func checkAppend(t *testing.T, enc *PointEncoder, axes []Axis, pt Point) {
	t.Helper()
	prefix := []byte("prev\n")
	got, gerr := enc.Append(append([]byte(nil), prefix...), &pt)
	want, werr := refEncode(axes, pt)
	if werr != nil {
		var uve *json.UnsupportedValueError
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("point %+v: error %v, want %v", pt, gerr, werr)
		}
		if errors.As(werr, &uve) && !errors.As(gerr, &uve) {
			t.Fatalf("point %+v: error %T, want %T", pt, gerr, werr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("point %+v: failed Append left %q", pt, got)
		}
		return
	}
	if gerr != nil {
		t.Fatalf("point %+v: unexpected error %v (reference %s)", pt, gerr, want)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("point %+v:\n got %s\nwant %s", pt, got[len(prefix):], want)
	}
}

func newTestEncoder(axes []Axis) *PointEncoder {
	return NewPointEncoder(axes, func(err error) any { return toRefError(err) })
}

// formatEdges straddles encoding/json's float format switches and the
// special values of the float64 line.
var formatEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789, 9007199254740993,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, -math.Nextafter(1e-6, 0),
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, -math.Nextafter(1e21, 0),
	1e-7, 1.5e-9, 1e-10, 2.5e-12, 1e-100, 1e100, 1e22, 1.2345e25,
	5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
	math.MaxFloat64, -math.MaxFloat64,
}

func TestAppendJSONFloat(t *testing.T) {
	for _, f := range formatEdges {
		want, _ := json.Marshal(f)
		got, err := AppendJSONFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendJSONFloat(%v) = %q, %v; want x%s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, werr := json.Marshal(f)
		got, err := AppendJSONFloat([]byte("x"), f)
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) || err.Error() != werr.Error() || string(got) != "x" {
			t.Errorf("AppendJSONFloat(%v) = %q, %v; want x and %v", f, got, err, werr)
		}
	}
}

// randFloat draws from a mix of random-bit finite floats, subnormals,
// format-switch edges and engineering-range values.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 1:
		return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal (or +0)
	case 2:
		return formatEdges[rng.Intn(len(formatEdges))]
	case 3:
		return math.Pow(10, rng.Float64()*40-30) * (rng.Float64() + 0.5)
	default:
		return float64(rng.Intn(100)) - 10
	}
}

var axisNames = []string{AxisN, AxisL, AxisC, AxisSlope, AxisRise, AxisSize}

// randAxes picks 1-6 distinct axis names in random declaration order.
func randAxes(rng *rand.Rand) []Axis {
	perm := rng.Perm(len(axisNames))
	axes := make([]Axis, 1+rng.Intn(len(axisNames)))
	for i := range axes {
		axes[i] = Axis{Name: axisNames[perm[i]]}
	}
	return axes
}

var errValues = []any{nil, 3, -0.5, 1e-9, "a<b>&c", true, []int{1, 2}, map[string]any{"z": 1, "a": "<"}}

// TestPointEncoderMatchesEncodingJSON is the differential check against
// the reference record over random grids and points: every Table 1 case
// and out-of-range codes, refinement depths, the n axis with a resolved
// N, and error records with HTML characters and non-string values.
func TestPointEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < 400; g++ {
		axes := randAxes(rng)
		enc := newTestEncoder(axes)
		for p := 0; p < 100; p++ {
			pt := Point{Values: make([]float64, len(axes)), VMax: randFloat(rng),
				Case: ssn.Case(rng.Intn(8) - 2), Depth: rng.Intn(3) * rng.Intn(4)}
			for k := range pt.Values {
				pt.Values[k] = randFloat(rng)
			}
			switch rng.Intn(10) {
			case 0:
				pt.Err = &valueError{msg: "n = <x> must be > 0 & odd", value: errValues[rng.Intn(len(errValues))]}
			case 1:
				pt.Err = errors.New("plain <failure> & more")
			}
			checkAppend(t, enc, axes, pt)
		}
	}
}

// TestPointEncoderMatchesEngineOutput runs the real engine over a grid
// with the n axis, an l axis crossing zero (ssn.ValidationError points)
// and a refined log c axis.
func TestPointEncoderMatchesEngineOutput(t *testing.T) {
	g := Grid{Base: baseParams(), Axes: []Axis{
		{Name: AxisL, From: -1e-9, To: 4e-9, Points: 6},
		{Name: AxisN, From: 1, To: 40, Points: 7},
		{Name: AxisC, From: 1e-14, To: 4e-11, Points: 9, Log: true},
	}}
	enc := newTestEncoder(g.Axes)
	var errs, deep int
	_, err := Run(context.Background(), g, Config{RefineDepth: 2}, func(pt Point) error {
		if pt.Err != nil {
			errs++
		}
		if pt.Depth > 0 {
			deep++
		}
		checkAppend(t, enc, g.Axes, pt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs == 0 || deep == 0 {
		t.Fatalf("grid produced %d failed and %d refined points; want both", errs, deep)
	}
}

// TestPointEncoderRefusesNonFinite: NaN and ±Inf anywhere in the record
// fail with encoding/json's error text and append nothing.
func TestPointEncoderRefusesNonFinite(t *testing.T) {
	axes := []Axis{{Name: AxisN}, {Name: AxisC}}
	enc := newTestEncoder(axes)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, pt := range []Point{
			{Values: []float64{1, bad}, VMax: 0.1, Case: ssn.OverDamped},
			{Values: []float64{bad, 1}, Err: errors.New("raw n is reported")},
			{Values: []float64{1, 2}, VMax: bad, Case: ssn.OverDamped},
			{Values: []float64{1, 2}, Err: &valueError{msg: "bad value", value: bad}},
		} {
			if _, err := refEncode(axes, pt); err == nil {
				t.Fatalf("reference accepted %+v", pt)
			}
			checkAppend(t, enc, axes, pt)
		}
	}
}

// FuzzAppendPoint differentially fuzzes PointEncoder against the
// reference record. The seeds pin the format switches, -0, subnormals,
// non-finite values, out-of-range cases and HTML in error messages.
func FuzzAppendPoint(f *testing.F) {
	bits := math.Float64bits
	f.Add(bits(0.5), bits(2e-12), bits(0.031), 17, 3, uint8(0), uint8(7), "", false)
	f.Add(bits(math.Copysign(0, -1)), bits(5e-324), bits(math.Copysign(0, -1)), 1, 1, uint8(1), uint8(0), "", false)
	f.Add(bits(math.Nextafter(1e-6, 0)), bits(1e-6), bits(math.Nextafter(1e21, 0)), 4, 4, uint8(3), uint8(5), "", false)
	f.Add(bits(1e21), bits(-1e21), bits(1e-7), 64, 9, uint8(2), uint8(41), "", false)
	f.Add(bits(math.NaN()), bits(1), bits(0.2), 2, 2, uint8(0), uint8(3), "", false)
	f.Add(bits(1), bits(math.Inf(-1)), bits(0.2), 2, 2, uint8(0), uint8(3), "", true)
	f.Add(bits(3.5), bits(1e-9), bits(0), 8, 0, uint8(1), uint8(11), "n = <3> & \"q\" \u2028", true)
	f.Add(bits(3.5), bits(1e-9), bits(0), 8, -7, uint8(0), uint8(200), "bad \xff utf-8", true)
	f.Fuzz(func(t *testing.T, a, b, vmax uint64, n, code int, depth, shape uint8, msg string, failed bool) {
		rng := rand.New(rand.NewSource(int64(shape)))
		axes := randAxes(rng)
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		vals := []float64{fa, fb, fa * fb, -fa, fb / 3, fa + fb}
		pt := Point{Values: vals[:len(axes)], VMax: math.Float64frombits(vmax),
			Case: ssn.Case(code), Depth: int(depth % 8)}
		for k, ax := range axes {
			if ax.Name == AxisN {
				pt.Values[k] = float64(n) / 4 // quarter steps: rounding and clamping
			}
		}
		if failed {
			pt.Err = &valueError{msg: msg, value: strings.ToUpper(msg)}
		}
		checkAppend(t, newTestEncoder(axes), axes, pt)
	})
}

// TestPointEncoderMemo reuses one encoder over random base-grid points
// whose small indices repeat while the value at an index sometimes
// changes bits: a failed point's raw n beside a valid point's resolved N,
// 0 beside -0, a fresh value, and a NaN or Inf refusal followed by
// finite values at the same indices. Indices run past the axes' points,
// so slots also wrap as they do past memoSlots. Every record must match
// the reference.
func TestPointEncoderMemo(t *testing.T) {
	const indices = 6
	rng := rand.New(rand.NewSource(1))
	var refused, reused int
	for g := 0; g < 200; g++ {
		axes := randAxes(rng)
		cur := make([][indices]float64, len(axes)) // the value at each index
		for k := range axes {
			axes[k].Points = 1 + rng.Intn(4)
			for i := range cur[k] {
				cur[k][i] = randFloat(rng)
			}
		}
		enc := newTestEncoder(axes)
		var prev Point
		for p := 0; p < 300; p++ {
			pt := Point{Index: make([]int, len(axes)), Values: make([]float64, len(axes)),
				VMax: randFloat(rng), Case: ssn.Case(rng.Intn(4) + 1)}
			same := prev.Index != nil && rng.Intn(4) == 0
			for k := range axes {
				i := rng.Intn(indices)
				if same {
					i = prev.Index[k]
				}
				switch rng.Intn(12) {
				case 0:
					cur[k][i] = -cur[k][i]
				case 1:
					cur[k][i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				case 2:
					cur[k][i] = randFloat(rng)
				}
				pt.Index[k], pt.Values[k] = i, cur[k][i]
			}
			if rng.Intn(4) == 0 {
				pt.Err = errors.New("failed <point> & more")
			}
			if rng.Intn(10) == 0 {
				pt.Values[rng.Intn(len(axes))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
			if _, err := refEncode(axes, pt); err != nil {
				refused++
			} else if same {
				reused++
			}
			checkAppend(t, enc, axes, pt)
			prev = pt
		}
	}
	if refused < 100 || reused < 1000 {
		t.Fatalf("%d refused points and %d reused indices; the sequence misses the memo's edges", refused, reused)
	}
}

// TestPointEncoderMemoBound: the memo does not grow with the grid. A
// PointEncoder and one row of a 2 x 500,000 grid, or all of a
// 1,000,000-point axis, allocate no more than memoSlots slots plus one
// per other axis, and a fixed 12 KiB: the heap rounds the slot slab up to
// whole 8 KiB pages, and the encoder keeps a few small buffers.
func TestPointEncoderMemoBound(t *testing.T) {
	for _, axes := range [][]Axis{
		{{Name: AxisN, From: 1, To: 2, Points: 2}, {Name: AxisC, From: 1e-15, To: 1e-9, Points: 500_000}},
		{{Name: AxisL, From: 1e-12, To: 1e-6, Points: 1_000_000}},
	} {
		last := len(axes) - 1
		vals := axes[last].Values()
		pt := Point{Index: make([]int, len(axes)), Values: make([]float64, len(axes)),
			VMax: 0.25, Case: ssn.OverDamped}
		dst := make([]byte, 0, 256)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		enc := newTestEncoder(axes)
		for i, v := range vals {
			pt.Index[last], pt.Values[last] = i, v
			var err error
			if dst, err = enc.Append(dst[:0], &pt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bound := uint64(memoSlots+last)*uint64(unsafe.Sizeof(memoSlot{})) + 12<<10
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%d-point axis: encoder and row allocated %d bytes, want <= %d", len(vals), got, bound)
		}
	}
}

// benchmarkNDJSONAppend encodes the points of g per op into a reused
// buffer through one encoder, keeping each point's Index or not.
func benchmarkNDJSONAppend(b *testing.B, g Grid, keepIndex bool) {
	var pts []Point
	if _, err := Run(context.Background(), g, Config{Workers: 1}, func(pt Point) error {
		if keepIndex {
			pt.Index = append([]int(nil), pt.Index...)
		} else {
			pt.Index = nil
		}
		pt.Values = append([]float64(nil), pt.Values...)
		pts = append(pts, pt)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	enc := NewPointEncoder(g.Axes, func(err error) any { return err.Error() })
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for i := range pts {
			var err error
			if buf, err = enc.Append(buf, &pts[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pts)), "ns/point")
}

// BenchmarkNDJSONAppend encodes 1024 engine points of a two-axis grid
// (n by log c) per op with Index dropped: the per-point cost of refined
// records, which the grid-index memo does not serve. It must not
// allocate.
func BenchmarkNDJSONAppend(b *testing.B) {
	benchmarkNDJSONAppend(b, Grid{Base: baseParams(), Axes: []Axis{
		{Name: AxisN, From: 1, To: 64, Points: 32},
		{Name: AxisC, From: 0.05e-12, To: 40e-12, Points: 32, Log: true},
	}}, false)
}

// BenchmarkNDJSONAppendGrid encodes the 4096 engine points of a 64x64
// log-l by log-c grid per op with Index kept: the records /v1/sweep and
// dist shards stream, whose axis values come from the memo. The encoder
// is reused across ops, so after the first op the first row hits the
// memo too, one row in 64 more than a fresh stream. It must not
// allocate.
func BenchmarkNDJSONAppendGrid(b *testing.B) {
	benchmarkNDJSONAppend(b, Grid{Base: baseParams(), Axes: []Axis{
		{Name: AxisL, From: 0.2e-9, To: 8e-9, Points: 64, Log: true},
		{Name: AxisC, From: 0.05e-12, To: 40e-12, Points: 64, Log: true},
	}}, true)
}
