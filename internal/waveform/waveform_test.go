package waveform

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, name string, ts, vs []float64) *Waveform {
	t.Helper()
	w, err := New(name, ts, vs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", []float64{0, 1}, []float64{1}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := New("x", nil, nil); err == nil {
		t.Error("empty waveform must error")
	}
	if _, err := New("x", []float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("non-increasing times must error")
	}
}

func TestNewCopiesInput(t *testing.T) {
	ts := []float64{0, 1}
	vs := []float64{5, 6}
	w := mustNew(t, "w", ts, vs)
	ts[0] = 99
	vs[0] = 99
	if w.Times[0] != 0 || w.Values[0] != 5 {
		t.Error("New must copy its inputs")
	}
}

func TestAtInterpolation(t *testing.T) {
	w := mustNew(t, "w", []float64{0, 1, 2}, []float64{0, 10, 0})
	cases := []struct{ tq, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {1.5, 5}, {2, 0}, {3, 0},
	}
	for _, c := range cases {
		if got := w.At(c.tq); got != c.want {
			t.Errorf("At(%g) = %g, want %g", c.tq, got, c.want)
		}
	}
}

func TestMaxMinAbsMax(t *testing.T) {
	w := mustNew(t, "w", []float64{0, 1, 2, 3}, []float64{1, -7, 4, 2})
	tmax, vmax := w.Max()
	if tmax != 2 || vmax != 4 {
		t.Errorf("Max = (%g, %g)", tmax, vmax)
	}
	tmin, vmin := w.Min()
	if tmin != 1 || vmin != -7 {
		t.Errorf("Min = (%g, %g)", tmin, vmin)
	}
	ta, va := w.AbsMax()
	if ta != 1 || va != -7 {
		t.Errorf("AbsMax = (%g, %g)", ta, va)
	}
}

func TestRMSConstant(t *testing.T) {
	w := mustNew(t, "w", []float64{0, 1, 2}, []float64{3, 3, 3})
	if got := w.RMS(); math.Abs(got-3) > 1e-12 {
		t.Errorf("RMS of constant 3 = %g", got)
	}
}

func TestRMSSine(t *testing.T) {
	// RMS of sin over a full period is 1/sqrt(2).
	w, err := FromFunc("sin", math.Sin, 0, 2*math.Pi, 20001)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.RMS(); math.Abs(got-1/math.Sqrt2) > 1e-4 {
		t.Errorf("RMS sine = %g, want %g", got, 1/math.Sqrt2)
	}
}

func TestCrossings(t *testing.T) {
	w := mustNew(t, "w", []float64{0, 1, 2, 3}, []float64{0, 2, -2, 2})
	xs := w.Crossings(1)
	want := []float64{0.5, 1.25, 2.75}
	if len(xs) != len(want) {
		t.Fatalf("crossings = %v, want %v", xs, want)
	}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Errorf("crossing[%d] = %g, want %g", i, xs[i], want[i])
		}
	}
}

func TestCrossingsOnSample(t *testing.T) {
	w := mustNew(t, "w", []float64{0, 1, 2}, []float64{0, 1, 2})
	xs := w.Crossings(1)
	if len(xs) != 1 || xs[0] != 1 {
		t.Errorf("sample-exact crossing = %v, want [1]", xs)
	}
	// Level at final sample.
	xs = w.Crossings(2)
	if len(xs) != 1 || xs[0] != 2 {
		t.Errorf("final-sample crossing = %v, want [2]", xs)
	}
}

func TestPeaks(t *testing.T) {
	w := mustNew(t, "w", []float64{0, 1, 2, 3, 4}, []float64{0, 3, 1, 5, 0})
	ps := w.Peaks()
	if len(ps) != 2 || ps[0] != 1 || ps[1] != 3 {
		t.Errorf("peaks = %v, want [1 3]", ps)
	}
}

func TestWindow(t *testing.T) {
	w := mustNew(t, "w", []float64{0, 1, 2, 3}, []float64{9, 8, 7, 6})
	sub, err := w.Window(0.5, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || sub.Times[0] != 1 || sub.Values[1] != 7 {
		t.Errorf("window = %v / %v", sub.Times, sub.Values)
	}
	if _, err := w.Window(10, 20); err == nil {
		t.Error("empty window must error")
	}
}

func TestResample(t *testing.T) {
	w := mustNew(t, "w", []float64{0, 2}, []float64{0, 2})
	r, err := w.Resample(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5 {
		t.Fatalf("resample len = %d", r.Len())
	}
	for i, tt := range r.Times {
		if math.Abs(r.Values[i]-tt) > 1e-12 {
			t.Errorf("resampled ramp value at %g = %g", tt, r.Values[i])
		}
	}
}

func TestScaleShiftSub(t *testing.T) {
	w := mustNew(t, "a", []float64{0, 1}, []float64{1, 2})
	s := w.Scale(3)
	if s.Values[0] != 3 || s.Values[1] != 6 || w.Values[0] != 1 {
		t.Error("Scale wrong or mutated original")
	}
	sh := w.Shift(10)
	if sh.Times[0] != 10 || w.Times[0] != 0 {
		t.Error("Shift wrong or mutated original")
	}
	b := mustNew(t, "b", []float64{0, 1}, []float64{1, 1})
	d := w.Sub(b)
	if d.Values[0] != 0 || d.Values[1] != 1 {
		t.Errorf("Sub = %v", d.Values)
	}
	if d.Name != "a-b" {
		t.Errorf("Sub name = %q", d.Name)
	}
}

func TestCompareIdentical(t *testing.T) {
	w, _ := FromFunc("w", math.Sin, 0, 6, 500)
	cs, err := w.Compare(w, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cs.MaxAbsErr != 0 || cs.RMSErr != 0 || cs.PeakRel != 0 {
		t.Errorf("identical compare: %+v", cs)
	}
}

func TestCompareKnownOffset(t *testing.T) {
	a := mustNew(t, "a", []float64{0, 1}, []float64{1, 1})
	b := mustNew(t, "b", []float64{0, 1}, []float64{2, 2})
	cs, err := a.Compare(b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cs.MaxAbsErr-1) > 1e-12 || math.Abs(cs.MaxRelErr-0.5) > 1e-12 {
		t.Errorf("compare stats %+v", cs)
	}
	if math.Abs(cs.PeakRel-0.5) > 1e-12 {
		t.Errorf("peak rel %g, want 0.5", cs.PeakRel)
	}
}

func TestCompareNoOverlap(t *testing.T) {
	a := mustNew(t, "a", []float64{0, 1}, []float64{0, 0})
	b := mustNew(t, "b", []float64{5, 6}, []float64{0, 0})
	if _, err := a.Compare(b, 10); err == nil {
		t.Error("disjoint spans must error")
	}
}

func TestAtWithinHullProperty(t *testing.T) {
	f := func(seed int64, q float64) bool {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		ts := make([]float64, n)
		vs := make([]float64, n)
		acc := 0.0
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range ts {
			acc += 0.01 + r.Float64()
			ts[i] = acc
			vs[i] = r.NormFloat64() * 10
			lo = math.Min(lo, vs[i])
			hi = math.Max(hi, vs[i])
		}
		w, err := New("p", ts, vs)
		if err != nil {
			return false
		}
		v := w.At(math.Mod(math.Abs(q), acc+2))
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMaxIsUpperBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		ts := make([]float64, n)
		vs := make([]float64, n)
		for i := range ts {
			ts[i] = float64(i)
			vs[i] = r.NormFloat64()
		}
		w, err := New("p", ts, vs)
		if err != nil {
			return false
		}
		_, vmax := w.Max()
		for _, v := range vs {
			if v > vmax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var set Set
	set.Add(mustNew(t, "v(out)", []float64{0, 1e-9, 2e-9}, []float64{0, 0.9, 1.8}))
	set.Add(mustNew(t, "i(l1)", []float64{0, 1e-9, 2e-9}, []float64{0, 5e-3, 1e-2}))
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "time,v(out),i(l1)\n0,0,0\n1e-09,0.9,0.005\n2e-09,1.8,0.01\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV = %q, want %q", got, want)
	}
}

func TestCSVErrors(t *testing.T) {
	var empty Set
	var buf bytes.Buffer
	if err := empty.WriteCSV(&buf); err == nil {
		t.Error("empty set must error")
	}
}

func TestSetGetAndNames(t *testing.T) {
	var set Set
	w := mustNew(t, "x", []float64{0}, []float64{1})
	set.Add(w)
	if set.Get("x") != w || set.Get("missing") != nil {
		t.Error("Get misbehaves")
	}
	if n := set.Names(); len(n) != 1 || n[0] != "x" {
		t.Errorf("Names = %v", n)
	}
}

func TestFromFuncErrors(t *testing.T) {
	if _, err := FromFunc("f", math.Sin, 0, 1, 1); err == nil {
		t.Error("n<2 must error")
	}
	if _, err := FromFunc("f", math.Sin, 1, 0, 10); err == nil {
		t.Error("reversed interval must error")
	}
}
