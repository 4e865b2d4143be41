package numeric

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the in-order discrete Fourier transform of x using an
// iterative radix-2 Cooley-Tukey algorithm. len(x) must be a power of two.
// The input slice is not modified.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("numeric: FFT length %d is not a power of two", n)
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i, v := range x {
		out[bits.Reverse64(uint64(i))>>shift] = v
	}
	// Butterfly passes.
	for size := 2; size <= n; size *= 2 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := out[start+k]
				b := out[start+k+half] * w
				out[start+k] = a + b
				out[start+k+half] = a - b
				w *= wBase
			}
		}
	}
	return out, nil
}

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Hann returns the n-point Hann window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}
