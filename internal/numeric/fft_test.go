package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n^2) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got, err := FFT(x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := naiveDFT(x)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, 3, 6, 100} {
		if _, err := FFT(make([]complex128, n)); err == nil {
			t.Errorf("n=%d accepted", n)
		}
	}
}

func TestFFTSingleToneBin(t *testing.T) {
	// A pure complex exponential at bin 5 puts all energy in bin 5.
	const n = 128
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * 5 * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ang))
	}
	X, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := range X {
		want := 0.0
		if k == 5 {
			want = n
		}
		if math.Abs(cmplx.Abs(X[k])-want) > 1e-8 {
			t.Fatalf("bin %d: |X| = %g, want %g", k, cmplx.Abs(X[k]), want)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Sum |x|^2 = (1/N) Sum |X|^2.
	rng := rand.New(rand.NewSource(11))
	const n = 512
	x := make([]complex128, n)
	tsum := 0.0
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		tsum += real(x[i]) * real(x[i])
	}
	X, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	fsum := 0.0
	for _, v := range X {
		fsum += real(v)*real(v) + imag(v)*imag(v)
	}
	fsum /= n
	if math.Abs(tsum-fsum) > 1e-8*tsum {
		t.Errorf("Parseval: time %g vs freq %g", tsum, fsum)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestHannWindow(t *testing.T) {
	w := Hann(8)
	if w[0] != 0 || w[7] != 0 {
		t.Error("Hann endpoints must be 0")
	}
	// Symmetry.
	for i := 0; i < 4; i++ {
		if math.Abs(w[i]-w[7-i]) > 1e-15 {
			t.Errorf("Hann asymmetric at %d", i)
		}
	}
	if got := Hann(1); got[0] != 1 {
		t.Error("Hann(1) must be [1]")
	}
}
