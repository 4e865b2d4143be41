package sweep

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// The shortest-digit kernel behind AppendJSONFloat: R. Giulietti's
// Schubfach ("The Schubfach way to render doubles", 2020), the algorithm
// of the JDK's Double.toString, without its two-digit minimum. For a
// positive normal float64 v = c·2^q it picks k = ⌊log10 2^q⌋, so that the
// rounding interval Rv of v (width 2^q, or ¾·2^q below a power of two)
// holds at most one multiple of 10^(k+1) and at least one of 10^k, and
// finds those candidates from three round-to-odd products of 4c-2, 4c
// and 4c+2 with g, 10^-k scaled to 126 bits, each exact enough that the
// choice matches the one exact arithmetic makes. The result is the shortest decimal in Rv and, among those,
// the closest to v (ties to an even digit): the digits strconv prints.

const (
	// kMin and kMax bound k over the normal float64 exponents
	// q ∈ [-1074, 971]; pow10G holds one g per k in between.
	kMin = -324
	kMax = 292

	qMin   = -1074     // the binary exponent of the smallest normal's ulp
	cMin   = 1 << 52   // the implicit bit: the significand of a power of two
	mask63 = 1<<63 - 1 // the low half of a 126-bit g
)

// The floor-log helpers are exact over the exponents the kernel meets;
// TestFloatTable checks each of them there against math/big.

// flog10Pow2 is ⌊q·log10 2⌋.
func flog10Pow2(q int) int { return q * 661_971_961_083 >> 41 }

// flog10ThreeQuartersPow2 is ⌊log10(¾·2^q)⌋.
func flog10ThreeQuartersPow2(q int) int { return (q*661_971_961_083 - 274_743_187_321) >> 41 }

// flog2Pow10 is ⌊e·log2 10⌋.
func flog2Pow10(e int) int { return e * 913_124_641_741 >> 38 }

// shortestDecimal returns the shortest decimal m·10^e, m free of trailing
// zeros, that rounds to the positive normal float64 c·2^q (c holds the
// implicit bit).
func shortestDecimal(c uint64, q int) (m uint64, e int) {
	// An integer below 2^53 is its own shortest spelling.
	if mq := -q; 0 < mq && mq < 53 {
		if f := c >> mq; f<<mq == c {
			return stripZeros(f, 0)
		}
	}
	out := c & 1 // Rv is closed for an even c and open for an odd one
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != cMin || q == qMin {
		cbl = cb - 2
		k = flog10Pow2(q)
	} else { // the predecessor is half as far as the successor
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2Pow10(-k) + 2
	g := &pow10G[k-kMin]
	vb := roundToOdd(g[0], g[1], cb<<h)
	vbl := roundToOdd(g[0], g[1], cbl<<h)
	vbr := roundToOdd(g[0], g[1], cbr<<h)

	// s ≥ 2^52, so one digit fewer is always a candidate length: Rv holds
	// at most one multiple of 10^(k+1), and it is the answer when present.
	s := vb >> 2
	s10 := s / 10
	upin := vbl+out <= s10*40
	wpin := (s10+1)*40+out <= vbr
	if upin != wpin {
		if upin {
			return stripZeros(s10, k+1)
		}
		return stripZeros(s10+1, k+1)
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return stripZeros(s, k)
		}
		return stripZeros(t, k)
	}
	// Both s and t lie in Rv: take the closer, the even one on a tie.
	if mid := (s + t) << 1; vb < mid || vb == mid && s&1 == 0 {
		return stripZeros(s, k)
	}
	return stripZeros(t, k)
}

// roundToOdd returns ⌊g·cp / 2^127⌋ with its lowest bit set when the
// quotient is inexact, for g = g1·2^63 + g0 < 2^126 and cp < 2^63.
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&mask63+mask63)>>63
}

// stripZeros removes m's trailing decimal zeros, counting them into e.
func stripZeros(m uint64, e int) (uint64, int) {
	if m%10 != 0 { // most spellings: full-length digits
		return m, e
	}
	m /= 10
	e++
	for m%10000 == 0 {
		m /= 10000
		e += 4
	}
	if m%100 == 0 {
		m /= 100
		e += 2
	}
	if m%10 == 0 {
		m /= 10
		e++
	}
	return m, e
}

// decimalLen is the number of decimal digits of m > 0.
func decimalLen(m uint64) int {
	n := (bits.Len64(m)*1233)>>12 + 1 // ⌊log10 2^len⌋ + 1: exact or one high
	if m < pow10[n-1] {
		n--
	}
	return n
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// digitPairs holds the two ASCII digits of 0 through 99 as little-endian
// uint16s, ready to store; 128 entries let a 7-bit index skip the bounds
// check.
var digitPairs = func() (t [128]uint16) {
	for i := 0; i < 100; i++ {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// putDigits writes the len(b) decimal digits of m into b, eight at a time
// from the right while more than eight remain.
func putDigits(b []byte, m uint64) {
	i := len(b)
	for i > 8 {
		q := m / 1e8
		put8(b[i-8:i], uint32(m-q*1e8))
		m = q
		i -= 8
	}
	u := uint32(m)
	for i > 1 {
		q := u / 100
		binary.LittleEndian.PutUint16(b[i-2:], digitPairs[(u-q*100)&127])
		u = q
		i -= 2
	}
	if i == 1 {
		b[0] = byte('0' + u)
	}
}

// put8 writes the eight decimal digits of u < 10^8, leading zeros kept,
// in one store. y holds u/10^6 in 57-bit fixed point, rounded up; each
// pair is its integer part, and the fraction times 100 holds the rest.
// The rounding error, below 0.15·u units of 2^-57, grows 10^6-fold over
// the three steps and stays below one unit of the last pair.
func put8(b []byte, u uint32) {
	y := uint64(u) * (1<<57/1_000_000 + 1)
	var w uint64
	for sh := 0; sh < 64; sh += 16 {
		w |= uint64(digitPairs[y>>57]) << sh
		y = y & (1<<57 - 1) * 100
	}
	binary.LittleEndian.PutUint64(b, w)
}

// appendDecimal appends m·10^e (m > 0, no trailing zeros) in strconv's
// shortest 'e' layout when expForm is set, its 'f' layout otherwise,
// with encoding/json's one-digit negative exponent (1e-7, not 1e-07).
func appendDecimal(dst []byte, m uint64, e int, expForm bool) []byte {
	n := decimalLen(m)
	dp := n + e // m·10^e = 0.d₁…dₙ·10^dp: the digits before the point
	start := len(dst)
	if expForm {
		// d.ddd…e±x: the digits land one byte right, then the first moves
		// left over the point.
		dst = slices.Grow(dst, n+6)[:start+n+6]
		b := dst[start:]
		putDigits(b[1:n+1], m)
		b[0] = b[1]
		i := 1
		if n > 1 {
			b[1] = '.'
			i = n + 1
		}
		x, sign := dp-1, byte('+')
		if x < 0 {
			x, sign = -x, '-'
		}
		b[i], b[i+1] = 'e', sign
		i += 2
		switch {
		case x < 10 && sign == '-': // strconv pads to e-07
			b[i] = byte('0' + x)
			i++
		case x < 100:
			binary.LittleEndian.PutUint16(b[i:], digitPairs[x])
			i += 2
		default:
			b[i] = byte('0' + x/100)
			binary.LittleEndian.PutUint16(b[i+1:], digitPairs[x%100])
			i += 3
		}
		return dst[:start+i]
	}
	switch {
	case dp <= 0: // 0.000ddd
		dst = slices.Grow(dst, 2-dp+n)[:start+2-dp+n]
		b := dst[start:]
		b[0], b[1] = '0', '.'
		for i := 2; i < 2-dp; i++ {
			b[i] = '0'
		}
		putDigits(b[2-dp:], m)
	case dp < n: // ddd.ddd: the integer digits move left over the point
		dst = slices.Grow(dst, n+1)[:start+n+1]
		b := dst[start:]
		putDigits(b[1:], m)
		copy(b, b[1:dp+1])
		b[dp] = '.'
	default: // ddd000
		dst = slices.Grow(dst, dp)[:start+dp]
		b := dst[start:]
		putDigits(b[:n], m)
		for i := n; i < dp; i++ {
			b[i] = '0'
		}
	}
	return dst
}
