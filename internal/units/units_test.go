package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"5n", 5e-9},
		{"5nH", 5e-9},
		{"1p", 1e-12},
		{"1pF", 1e-12},
		{"10m", 10e-3},
		{"10mOhm", 10e-3},
		{"3meg", 3e6},
		{"3MEG", 3e6},
		{"2k", 2e3},
		{"1.8", 1.8},
		{"1.8V", 1.8},
		{"2.2e-9", 2.2e-9},
		{"2.2E-9", 2.2e-9},
		{"-0.5u", -0.5e-6},
		{"+4f", 4e-15},
		{"7g", 7e9},
		{"1t", 1e12},
		{"100", 100},
		{"1mil", 25.4e-6},
		{"0", 0},
		{"1e3", 1e3},
		{"1e+3", 1e3},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", c.in, err)
			continue
		}
		if !ApproxEqual(got, c.want, 1e-12, 0) {
			t.Errorf("Parse(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "   ", "abc", "5x", "1.2.3", "--4", "nF", "e9"} {
		if v, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %g, want error", in, v)
		}
	}
}

func TestParseUnitWords(t *testing.T) {
	// Bare unit letters after the number carry no multiplier.
	for _, in := range []string{"3v", "3a", "3s", "3h", "3hz", "3ohm", "3ohms"} {
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got != 3 {
			t.Errorf("Parse(%q) = %g, want 3", in, got)
		}
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{5e-9, "H", "5nH"},
		{1e-12, "F", "1pF"},
		{1.8, "V", "1.8V"},
		{2500, "Ohm", "2.5kOhm"},
		{0, "V", "0V"},
		{3.3e6, "Hz", "3.3megHz"},
	}
	for _, c := range cases {
		got := Format(c.v, c.unit)
		if got != c.want {
			t.Errorf("Format(%g, %q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	// Format then Parse must return close to the original magnitude.
	f := func(mant float64, exp8 uint8) bool {
		if math.IsNaN(mant) || math.IsInf(mant, 0) || mant == 0 {
			return true
		}
		// Restrict to the range covered by SI prefixes.
		exp := int(exp8%28) - 14 // 1e-14 .. 1e13
		v := math.Copysign(math.Mod(math.Abs(mant), 9)+1, mant) * math.Pow(10, float64(exp))
		s := Format(v, "V")
		got, err := Parse(s)
		if err != nil {
			t.Logf("round trip parse error for %q: %v", s, err)
			return false
		}
		return ApproxEqual(got, v, 1e-3, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-13, 1e-12, 0) {
		t.Error("relative tolerance should accept 1e-13 difference at scale 1")
	}
	if ApproxEqual(1.0, 1.1, 1e-3, 0) {
		t.Error("10%% difference should fail 0.1%% tolerance")
	}
	if !ApproxEqual(0, 1e-15, 0, 1e-12) {
		t.Error("absolute tolerance should accept tiny difference near zero")
	}
	if ApproxEqual(math.NaN(), math.NaN(), 1, 1) {
		t.Error("NaN must not compare equal")
	}
	if !ApproxEqual(math.Inf(1), math.Inf(1), 0, 0) {
		t.Error("equal infinities must compare equal")
	}
}
