// Package units provides SI engineering-notation parsing and formatting and
// tolerant floating-point comparison helpers used throughout ssnkit.
//
// All internal computation in ssnkit is carried out in base SI units
// (volts, amperes, seconds, henries, farads, ohms). Engineering suffixes
// ("5n", "1.2p", "3meg") appear only at the CLI and netlist-parser boundary;
// this package is that boundary.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SI prefix multipliers accepted by Parse. SPICE convention: suffixes are
// case-insensitive and "mil" / "meg" are multi-letter. "M" means milli
// (SPICE tradition), "MEG" means 1e6.
const (
	Femto = 1e-15
	Pico  = 1e-12
	Nano  = 1e-9
	Micro = 1e-6
	Milli = 1e-3
	Kilo  = 1e3
	Mega  = 1e6
	Giga  = 1e9
	Tera  = 1e12
)

// Parse converts an engineering-notation string such as "5n", "1.2pF",
// "3meg", "0.5", or "2.2e-9" into a float64 in base SI units. Unit letters
// following the prefix (F, H, V, A, S, OHM...) are ignored, matching SPICE
// behaviour. An empty string or an unparsable number is an error.
func Parse(s string) (float64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("units: empty value")
	}
	// Split the leading numeric part from the trailing suffix.
	i := 0
	seenDigit := false
	for i < len(t) {
		c := t[i]
		switch {
		case c >= '0' && c <= '9':
			seenDigit = true
			i++
		case c == '+' || c == '-' || c == '.':
			i++
		case c == 'e' && seenDigit && i+1 < len(t) && isExpTail(t[i+1:]):
			// scientific notation exponent, not an engineering suffix
			i++
		default:
			goto done
		}
	}
done:
	if !seenDigit {
		return 0, fmt.Errorf("units: %q has no numeric part", s)
	}
	num, err := strconv.ParseFloat(t[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("units: parse %q: %w", s, err)
	}
	suffix := t[i:]
	mult, err := suffixMultiplier(suffix)
	if err != nil {
		return 0, fmt.Errorf("units: %q: %w", s, err)
	}
	return num * mult, nil
}

// isExpTail reports whether s looks like the tail of a scientific-notation
// exponent: optional sign followed by at least one digit.
func isExpTail(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	return len(s) > 0 && s[0] >= '0' && s[0] <= '9'
}

func suffixMultiplier(suffix string) (float64, error) {
	if suffix == "" {
		return 1, nil
	}
	switch {
	case strings.HasPrefix(suffix, "meg"):
		return Mega, nil
	case strings.HasPrefix(suffix, "mil"):
		return 25.4e-6, nil // 1 mil = 25.4 µm, SPICE tradition
	}
	switch suffix[0] {
	case 'f':
		return Femto, nil
	case 'p':
		return Pico, nil
	case 'n':
		return Nano, nil
	case 'u':
		return Micro, nil
	case 'm':
		return Milli, nil
	case 'k':
		return Kilo, nil
	case 'g':
		return Giga, nil
	case 't':
		return Tera, nil
	}
	// Pure unit letters (v, a, s, h, ohm, hz...) carry no multiplier.
	if isUnitWord(suffix) {
		return 1, nil
	}
	return 0, fmt.Errorf("unknown suffix %q", suffix)
}

func isUnitWord(s string) bool {
	for _, c := range s {
		if !(c >= 'a' && c <= 'z') {
			return false
		}
	}
	switch s {
	case "v", "a", "s", "h", "hz", "ohm", "ohms", "f":
		return true
	}
	return false
}

// Format renders v with an engineering SI prefix and the given unit symbol,
// e.g. Format(5e-9, "H") == "5.000nH". Values of exactly zero format as
// "0.000<unit>".
func Format(v float64, unit string) string {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Sprintf("%.3g%s", v, unit)
	}
	type pfx struct {
		mult float64
		sym  string
	}
	// "meg" rather than "M" for 1e6: SPICE suffixes are case-insensitive and
	// "m" means milli, so Format must stay round-trippable through Parse.
	table := []pfx{
		{Tera, "T"}, {Giga, "G"}, {Mega, "meg"}, {Kilo, "k"}, {1, ""},
		{Milli, "m"}, {Micro, "u"}, {Nano, "n"}, {Pico, "p"}, {Femto, "f"},
	}
	av := math.Abs(v)
	for _, p := range table {
		if av >= p.mult {
			return fmt.Sprintf("%.4g%s%s", v/p.mult, p.sym, unit)
		}
	}
	return fmt.Sprintf("%.4g%s%s", v/Femto, "f", unit)
}

// ApproxEqual reports whether a and b agree to within relative tolerance rel
// or absolute tolerance abs (whichever is looser). It treats NaNs as unequal
// and equal infinities as equal.
func ApproxEqual(a, b, rel, abs float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= abs {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*scale
}
