package cliflags

import (
	"math"
	"testing"
)

func TestParseAxis(t *testing.T) {
	a, err := ParseAxis("l=1n:12n:64:log")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "l" || a.Points != 64 || !a.Log ||
		math.Abs(a.From-1e-9) > 1e-15 || math.Abs(a.To-12e-9) > 1e-15 {
		t.Errorf("parsed %+v", a)
	}
	if a, err := ParseAxis("n=1:512:512"); err != nil || a.Log {
		t.Errorf("linear axis: %+v, %v", a, err)
	}
	for _, bad := range []string{"n=1:512", "n=1:512:8.5", "n=1:512:8x", "n=1:512:8:banana", "n1:512:8", "n=x:512:8"} {
		if a, err := ParseAxis(bad); err == nil {
			t.Errorf("%q parsed as %+v", bad, a)
		}
	}
}
