package ssn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randPlanParams draws a valid base point spanning the design space widely
// enough that the four Table 1 cases all occur. Every fourth draw pins C
// at the critical capacitance so the critically-damped band is exercised.
func randPlanParams(rng *rand.Rand, round int) Params {
	p := Params{
		N:     1 + rng.Intn(128),
		Vdd:   0.9 + 2.4*rng.Float64(),
		Slope: math.Exp(math.Log(1e8) + rng.Float64()*math.Log(1e10/1e8)),
		L:     math.Exp(math.Log(5e-11) + rng.Float64()*math.Log(1e-8/5e-11)),
	}
	p.Dev.K = 1e-3 * math.Exp(rng.Float64()*math.Log(20))
	p.Dev.V0 = 0.2 + 0.5*rng.Float64()
	p.Dev.A = 0.5 + 1.5*rng.Float64()
	switch round % 4 {
	case 0:
		p.C = p.CriticalCapacitance()
	case 1:
		p.C = 0
	default:
		p.C = math.Exp(math.Log(1e-14) + rng.Float64()*math.Log(1e-10/1e-14))
	}
	return p
}

// randAxisValue draws a per-point value valid for the axis.
func randAxisValue(rng *rand.Rand, axis PlanAxis, p Params) float64 {
	switch axis {
	case PlanAxisN:
		return rng.Float64() * 130
	case PlanAxisL:
		return math.Exp(math.Log(5e-11) + rng.Float64()*math.Log(1e-8/5e-11))
	case PlanAxisC:
		switch rng.Intn(4) {
		case 0:
			return p.CriticalCapacitance()
		case 1:
			return 0
		default:
			return math.Exp(math.Log(1e-14) + rng.Float64()*math.Log(1e-10/1e-14))
		}
	case PlanAxisSlope:
		return math.Exp(math.Log(1e8) + rng.Float64()*math.Log(1e10/1e8))
	default:
		return 0
	}
}

// applyAxis mirrors the kernel's interpretation of an axis value onto the
// scalar parameter struct (including PlanAxisN's round-and-clamp).
func applyAxis(p Params, axis PlanAxis, v float64) Params {
	switch axis {
	case PlanAxisN:
		n := int(math.Round(v))
		if n < 1 {
			n = 1
		}
		p.N = n
	case PlanAxisL:
		p.L = v
	case PlanAxisC:
		p.C = v
	case PlanAxisSlope:
		p.Slope = v
	}
	return p
}

// boundaryBatch returns a base point and a sorted, log-spaced batch of
// axis values that crosses a Table 1 boundary, with the boundary value
// itself included: C through the critical capacitance (after a leading
// C = 0), slope through τp = τr on an under-damped base, and N and L through
// critical damping when C > 0 (at C = 0 the same spans stay in the
// first-order limit). These batches hand the kernels long multi-point runs
// and every run-to-run hand-off, which random batches rarely produce.
func boundaryBatch(rng *rand.Rand, round int, axis PlanAxis) (Params, []float64) {
	p := randPlanParams(rng, 2) // C off the critical band; reset per axis
	const span, points = 100.0, 64
	var x0 float64
	var vals []float64
	switch axis {
	case PlanAxisC:
		p.C = 0
		x0 = p.CriticalCapacitance()
		vals = append(vals, 0)
	case PlanAxisSlope:
		p.C = p.CriticalCapacitance() * math.Exp(rng.Float64()*math.Log(1000))
		x0 = (p.Vdd - p.Dev.V0) * damping(p).omega / math.Pi
	case PlanAxisN:
		p.N = 2 + rng.Intn(200)
		x0 = float64(p.N)
		if round%2 == 0 {
			p.C = p.CriticalCapacitance()
		} else {
			p.C = 0
		}
	case PlanAxisL:
		x0 = p.L
		if round%2 == 0 {
			p.C = p.CriticalCapacitance()
		} else {
			p.C = 0
		}
	}
	lo := x0 / span
	if axis == PlanAxisN {
		lo = 1
	}
	la, lb := math.Log(lo), math.Log(x0*span)
	for i := 0; i < points; i++ {
		vals = append(vals, math.Exp(la+(lb-la)*float64(i)/(points-1)))
	}
	vals = append(vals, x0)
	sort.Float64s(vals)
	return p, vals
}

// TestPlanBitwiseEqualsScalar is the tentpole property: across 10^4 seeded
// points covering every axis kind and all four Table 1 cases, plus sorted
// batches crossing every case boundary, the batch kernels reproduce the
// scalar MaxSSN bit for bit.
func TestPlanBitwiseEqualsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	axes := []PlanAxis{PlanFixed, PlanAxisN, PlanAxisL, PlanAxisC, PlanAxisSlope}
	const rounds, batch = 500, 20 // 10^4 points total
	caseSeen := map[Case]int{}

	dst := make([]float64, 0, 128)
	cases := make([]Case, 0, 128)
	check := func(round int, p Params, axis PlanAxis, vals []float64) {
		t.Helper()
		dst, cases = dst[:len(vals)], cases[:len(vals)]
		pl, err := CompilePlan(p, axis)
		if err != nil {
			t.Fatalf("round %d: compile axis %d: %v", round, axis, err)
		}
		pl.VMaxCaseBatch(dst, cases, vals)
		for i, v := range vals {
			q := applyAxis(p, axis, v)
			want, wantCase, err := MaxSSN(q)
			if err != nil {
				t.Fatalf("round %d[%d]: scalar MaxSSN: %v", round, i, err)
			}
			if math.Float64bits(want) != math.Float64bits(dst[i]) {
				t.Fatalf("round %d[%d] axis %d: batch %v (%#x) != scalar %v (%#x) at %+v",
					round, i, axis, dst[i], math.Float64bits(dst[i]),
					want, math.Float64bits(want), q)
			}
			if cases[i] != wantCase {
				t.Fatalf("round %d[%d] axis %d: batch case %v != scalar %v at %+v",
					round, i, axis, cases[i], wantCase, q)
			}
			caseSeen[wantCase]++
		}
	}
	vals := make([]float64, batch)
	for round := 0; round < rounds; round++ {
		p := randPlanParams(rng, round)
		axis := axes[round%len(axes)]
		for i := range vals {
			vals[i] = randAxisValue(rng, axis, p)
		}
		check(round, p, axis, vals)
	}
	for _, c := range []Case{OverDamped, CriticallyDamped, UnderDampedPeak, UnderDampedBoundary} {
		if caseSeen[c] == 0 {
			t.Fatalf("generator never produced case %v; coverage: %v", c, caseSeen)
		}
	}
	t.Logf("case coverage over %d points: %v", rounds*batch, caseSeen)

	// Sorted boundary batches: every axis must hand off between runs at
	// each Table 1 boundary it can cross.
	type handoff struct{ from, to Case }
	crossed := map[PlanAxis]map[handoff]int{}
	for round := 0; round < 200; round++ {
		for _, axis := range axes[1:] {
			p, bvals := boundaryBatch(rng, round, axis)
			check(round, p, axis, bvals)
			if crossed[axis] == nil {
				crossed[axis] = map[handoff]int{}
			}
			for i := 1; i < len(bvals); i++ {
				if cases[i] != cases[i-1] {
					crossed[axis][handoff{cases[i-1], cases[i]}]++
				}
			}
		}
	}
	toCrit := []handoff{{CriticallyDamped, OverDamped},
		{UnderDampedPeak, CriticallyDamped}, {UnderDampedBoundary, CriticallyDamped},
		{UnderDampedPeak, UnderDampedBoundary}}
	required := map[PlanAxis][]handoff{
		PlanAxisN: toCrit,
		PlanAxisL: toCrit,
		PlanAxisC: {{OverDamped, CriticallyDamped},
			{CriticallyDamped, UnderDampedPeak}, {CriticallyDamped, UnderDampedBoundary},
			{UnderDampedPeak, UnderDampedBoundary}},
		PlanAxisSlope: {{UnderDampedPeak, UnderDampedBoundary}},
	}
	for _, axis := range axes[1:] {
		for _, h := range required[axis] {
			if crossed[axis][h] == 0 {
				t.Errorf("axis %d: no sorted batch hands off %v -> %v; seen %v",
					axis, h.from, h.to, crossed[axis])
			}
		}
	}
}

// FuzzPlanBatch widens TestPlanBitwiseEqualsScalar's sorted batches: a
// fuzzed open axis, base point and sorted log-spaced batch (led by C = 0
// on the C axis) must give MaxSSN's bits and case at every point.
func FuzzPlanBatch(f *testing.F) {
	f.Add(uint8(PlanAxisC), uint16(16), 1.8, 0.6, 4e-3, 1.2, 1.8e9, 1.25e-9, 2e-12, 0.05e-12, 40e-12, uint8(64))
	f.Add(uint8(PlanAxisN), uint16(16), 1.8, 0.6, 4e-3, 1.2, 1.8e9, 1.25e-9, 2e-12, 1.0, 400.0, uint8(100))
	f.Add(uint8(PlanAxisN), uint16(16), 1.8, 0.6, 4e-3, 1.2, 1.8e9, 1.25e-9, 0.0, 1.0, 400.0, uint8(30))
	f.Add(uint8(PlanAxisL), uint16(16), 1.8, 0.6, 4e-3, 1.2, 1.8e9, 1.25e-9, 2e-12, 1e-12, 1e-7, uint8(64))
	f.Add(uint8(PlanAxisL), uint16(16), 1.8, 0.6, 4e-3, 1.2, 1.8e9, 1.25e-9, 0.0, 1e-12, 1e-7, uint8(16))
	f.Add(uint8(PlanAxisSlope), uint16(4), 1.8, 0.6, 4e-3, 1.2, 1.8e9, 1.25e-9, 20e-12, 1e7, 1e12, uint8(64))
	f.Add(uint8(PlanAxisSlope), uint16(16), 1.8, 0.6, 4e-3, 1.2, 1.8e9, 1.25e-9, 0.0, 1e7, 1e12, uint8(8))
	f.Fuzz(func(t *testing.T, axisSel uint8, n uint16, vdd, v0, k, a, slope, l, c, lo, hi float64, points uint8) {
		axis := PlanAxis(1 + axisSel%4)
		p := Params{N: int(n), Vdd: vdd, Slope: slope, L: l, C: c}
		p.Dev.K, p.Dev.V0, p.Dev.A = k, v0, a
		pl, err := CompilePlan(p, axis)
		if err != nil || !(lo > 0 && hi >= lo) || math.IsInf(hi, 0) {
			return
		}
		var vals []float64
		if axis == PlanAxisC {
			vals = append(vals, 0)
		}
		m := 1 + int(points%128)
		la, lb := math.Log(lo), math.Log(hi)
		for i := 0; i < m; i++ {
			vals = append(vals, math.Exp(la+(lb-la)*float64(i)/float64(m)))
		}
		vals = append(vals, hi)
		sort.Float64s(vals)
		dst := make([]float64, len(vals))
		cases := make([]Case, len(vals))
		pl.VMaxCaseBatch(dst, cases, vals)
		for i, v := range vals {
			q := applyAxis(p, axis, v)
			want, wantCase, err := MaxSSN(q)
			if err != nil {
				t.Fatalf("[%d] scalar MaxSSN at %+v: %v", i, q, err)
			}
			if math.Float64bits(want) != math.Float64bits(dst[i]) || wantCase != cases[i] {
				t.Fatalf("[%d] axis %d: batch %v (%#x, %v) != scalar %v (%#x, %v) at %+v",
					i, axis, dst[i], math.Float64bits(dst[i]), cases[i],
					want, math.Float64bits(want), wantCase, q)
			}
		}
	})
}

// TestPlanCompileValidation checks the per-axis validation exemption: the
// axis field may hold any value at compile time, every other field is
// validated exactly like Params.Validate.
func TestPlanCompileValidation(t *testing.T) {
	base := Params{N: 8, Vdd: 1.8, Slope: 2e9, L: 1e-9, C: 1e-12}
	base.Dev.K = 4e-3
	base.Dev.V0 = 0.6
	base.Dev.A = 1.2

	for _, tc := range []struct {
		name string
		mut  func(*Params)
		axis PlanAxis
		ok   bool
	}{
		{"fixed valid", func(*Params) {}, PlanFixed, true},
		{"fixed bad L", func(p *Params) { p.L = 0 }, PlanFixed, false},
		{"axis L exempt", func(p *Params) { p.L = -1 }, PlanAxisL, true},
		{"axis C exempt", func(p *Params) { p.C = -1 }, PlanAxisC, true},
		{"axis slope exempt", func(p *Params) { p.Slope = 0 }, PlanAxisSlope, true},
		{"axis N exempt", func(p *Params) { p.N = 0 }, PlanAxisN, true},
		{"axis L still checks Vdd", func(p *Params) { p.Vdd = 0.1 }, PlanAxisL, false},
		{"axis slope still checks L", func(p *Params) { p.L = 0 }, PlanAxisSlope, false},
	} {
		p := base
		tc.mut(&p)
		_, err := CompilePlan(p, tc.axis)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestPlanBatchAllocs is the satellite allocation guard: the batch kernels
// and the in-place Compile must not allocate at all.
func TestPlanBatchAllocs(t *testing.T) {
	p := Params{N: 16, Vdd: 1.8, Slope: 1.8e9, L: 1.25e-9, C: 2e-12}
	p.Dev.K = 4e-3
	p.Dev.V0 = 0.6
	p.Dev.A = 1.2

	const n = 256
	vals := make([]float64, n)
	dst := make([]float64, n)
	cases := make([]Case, n)
	rng := rand.New(rand.NewSource(1))
	var pl Plan
	for _, axis := range []PlanAxis{PlanFixed, PlanAxisN, PlanAxisL, PlanAxisC, PlanAxisSlope} {
		for i := range vals {
			vals[i] = randAxisValue(rng, axis, p)
		}
		if err := pl.Compile(p, axis); err != nil {
			t.Fatalf("compile axis %d: %v", axis, err)
		}
		if got := testing.AllocsPerRun(100, func() {
			pl.VMaxCaseBatch(dst, cases, vals)
		}); got != 0 {
			t.Errorf("axis %d: VMaxCaseBatch allocates %v/run, want 0", axis, got)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := pl.Compile(p, PlanFixed); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Compile allocates %v/run, want 0", got)
	}
}

// TestVMaxCaseBatchN checks the integer-axis kernel against both the float
// kernel (bit for bit on the same rounded grid) and the scalar path.
func TestVMaxCaseBatchN(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rounds, batch = 200, 32
	ns := make([]int, batch)
	fvals := make([]float64, batch)
	dstI := make([]float64, batch)
	dstF := make([]float64, batch)
	casesI := make([]Case, batch)
	casesF := make([]Case, batch)
	for round := 0; round < rounds; round++ {
		p := randPlanParams(rng, round)
		for i := range ns {
			ns[i] = 1 + rng.Intn(200)
			fvals[i] = float64(ns[i])
		}
		pl, err := CompilePlan(p, PlanAxisN)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		pl.VMaxCaseBatchN(dstI, casesI, ns)
		pl.VMaxCaseBatch(dstF, casesF, fvals)
		for i := range ns {
			if math.Float64bits(dstI[i]) != math.Float64bits(dstF[i]) || casesI[i] != casesF[i] {
				t.Fatalf("round %d[%d]: int kernel (%v,%v) != float kernel (%v,%v) at N=%d",
					round, i, dstI[i], casesI[i], dstF[i], casesF[i], ns[i])
			}
			q := p
			q.N = ns[i]
			want, wantCase, err := MaxSSN(q)
			if err != nil {
				t.Fatalf("round %d[%d]: %v", round, i, err)
			}
			if math.Float64bits(want) != math.Float64bits(dstI[i]) || wantCase != casesI[i] {
				t.Fatalf("round %d[%d]: int kernel (%v,%v) != scalar (%v,%v) at N=%d",
					round, i, dstI[i], casesI[i], want, wantCase, ns[i])
			}
		}
	}
}

// TestVMaxCaseBatchNPanics pins the axis guard.
func TestVMaxCaseBatchNPanics(t *testing.T) {
	p := Params{N: 8, Vdd: 1.8, Slope: 2e9, L: 1e-9, C: 1e-12}
	p.Dev.K = 4e-3
	p.Dev.V0 = 0.6
	p.Dev.A = 1.2
	pl, err := CompilePlan(p, PlanAxisC)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("VMaxCaseBatchN on a non-N plan must panic")
		}
	}()
	pl.VMaxCaseBatchN(make([]float64, 1), nil, []int{4})
}

// TestFastBatchAllocs extends the allocation guard to the integer-axis
// kernel (after the lazily grown scratch warm-up).
func TestFastBatchAllocs(t *testing.T) {
	p := Params{N: 16, Vdd: 1.8, Slope: 1.8e9, L: 1.25e-9, C: 2e-12}
	p.Dev.K = 4e-3
	p.Dev.V0 = 0.6
	p.Dev.A = 1.2
	const n = 256
	ns := make([]int, n)
	for i := range ns {
		ns[i] = 1 + i
	}
	dst := make([]float64, n)
	cases := make([]Case, n)
	plN, err := CompilePlan(p, PlanAxisN)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { plN.VMaxCaseBatchN(dst, cases, ns) }); got != 0 {
		t.Errorf("VMaxCaseBatchN allocates %v/run, want 0", got)
	}
}

// BenchmarkVMaxCaseBatch measures the compiled C-axis kernel — the
// innermost axis of the reference sweep — over a 1024-point batch per op.
func BenchmarkVMaxCaseBatch(b *testing.B) {
	p := Params{N: 16, Vdd: 1.8, Slope: 1.8e9, L: 1.25e-9, C: 2e-12}
	p.Dev.K = 4e-3
	p.Dev.V0 = 0.6
	p.Dev.A = 1.2
	const n = 1024
	vals := make([]float64, n)
	la, lb := math.Log(0.05e-12), math.Log(40e-12)
	for i := range vals {
		vals[i] = math.Exp(la + (lb-la)*float64(i)/float64(n-1))
	}
	dst := make([]float64, n)
	cases := make([]Case, n)
	pl, err := CompilePlan(p, PlanAxisC)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.VMaxCaseBatch(dst, cases, vals)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/point")
}

// BenchmarkMaxSSNScalar is the scalar baseline for the same point mix.
func BenchmarkMaxSSNScalar(b *testing.B) {
	p := Params{N: 16, Vdd: 1.8, Slope: 1.8e9, L: 1.25e-9, C: 2e-12}
	p.Dev.K = 4e-3
	p.Dev.V0 = 0.6
	p.Dev.A = 1.2
	const n = 1024
	vals := make([]float64, n)
	la, lb := math.Log(0.05e-12), math.Log(40e-12)
	for i := range vals {
		vals[i] = math.Exp(la + (lb-la)*float64(i)/float64(n-1))
	}
	var m LCModel
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p
		q.C = vals[i%n]
		if err := m.Init(q); err != nil {
			b.Fatal(err)
		}
		_ = m.VMax()
	}
}
