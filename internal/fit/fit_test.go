package fit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvaluatePerfectFit(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	s, err := Evaluate(obs, obs, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if s.RMSE != 0 || s.MaxAbs != 0 || s.R2 != 1 || s.MaxRel != 0 {
		t.Errorf("perfect fit stats: %+v", s)
	}
}

func TestEvaluateKnownStats(t *testing.T) {
	obs := []float64{0, 2}
	pred := []float64{1, 1} // residuals 1, -1
	s, err := Evaluate(pred, obs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.RMSE-1) > 1e-15 {
		t.Errorf("RMSE = %g, want 1", s.RMSE)
	}
	if s.MaxAbs != 1 || s.MeanAbs != 1 {
		t.Errorf("abs stats: %+v", s)
	}
	// ssTot = 2 (mean 1), ssRes = 2 -> R2 = 0
	if math.Abs(s.R2) > 1e-15 {
		t.Errorf("R2 = %g, want 0", s.R2)
	}
	// first obs 0 -> floored at 0.5 -> rel 2
	if math.Abs(s.MaxRel-2) > 1e-15 {
		t.Errorf("MaxRel = %g, want 2", s.MaxRel)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate([]float64{1}, []float64{1, 2}, 0); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := Evaluate(nil, nil, 0); err == nil {
		t.Error("empty input must error")
	}
}

func TestLinearRecoversPlantedModel(t *testing.T) {
	// y = 3*x1 - 2*x2 + 0.5
	rows := [][]float64{}
	y := []float64{}
	for i := 0; i < 20; i++ {
		x1, x2 := float64(i)*0.1, float64(i*i)*0.01
		rows = append(rows, []float64{1, x1, x2})
		y = append(y, 0.5+3*x1-2*x2)
	}
	c, err := Linear(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 3, -2}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-9 {
			t.Errorf("c[%d] = %g, want %g", i, c[i], want[i])
		}
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := Linear(nil, nil); err == nil {
		t.Error("empty input must error")
	}
	if _, err := Linear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths must error")
	}
}

func TestLinearRecoveryProperty(t *testing.T) {
	// Property: planted noiseless linear models are recovered for random
	// well-spread regressors.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c0, c1 := r.NormFloat64()*5, r.NormFloat64()*5
		rows := make([][]float64, 12)
		y := make([]float64, 12)
		for i := range rows {
			x := float64(i) + r.Float64() // strictly spread
			rows[i] = []float64{1, x}
			y[i] = c0 + c1*x
		}
		c, err := Linear(rows, y)
		if err != nil {
			return false
		}
		return math.Abs(c[0]-c0) < 1e-8*(1+math.Abs(c0)) &&
			math.Abs(c[1]-c1) < 1e-8*(1+math.Abs(c1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLMExponentialFit(t *testing.T) {
	// y = A * exp(-x/tau); recover A=2, tau=0.5 from clean samples.
	model := func(x, p []float64) float64 { return p[0] * math.Exp(-x[0]/p[1]) }
	xs := [][]float64{}
	ys := []float64{}
	for i := 0; i <= 20; i++ {
		x := float64(i) * 0.1
		xs = append(xs, []float64{x})
		ys = append(ys, 2*math.Exp(-x/0.5))
	}
	res, err := LevenbergMarquardt(model, xs, ys, []float64{1, 1}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-2) > 1e-6 || math.Abs(res.Params[1]-0.5) > 1e-6 {
		t.Errorf("LM params = %v, want [2 0.5] (ssr %g, conv %v)", res.Params, res.SSR, res.Converged)
	}
	if res.SSR > 1e-12 {
		t.Errorf("SSR = %g, want ~0", res.SSR)
	}
}

func TestLMPowerLawFit(t *testing.T) {
	// The alpha-power extraction shape: y = K*(x - v0)^alpha for x > v0.
	model := func(x, p []float64) float64 {
		K, v0, alpha := p[0], p[1], p[2]
		d := x[0] - v0
		if d <= 0 {
			return 0
		}
		return K * math.Pow(d, alpha)
	}
	trueP := []float64{3e-3, 0.5, 1.3}
	xs := [][]float64{}
	ys := []float64{}
	for i := 0; i <= 30; i++ {
		x := 0.6 + float64(i)*0.04 // stay above v0
		xs = append(xs, []float64{x})
		ys = append(ys, model([]float64{x}, trueP))
	}
	res, err := LevenbergMarquardt(model, xs, ys, []float64{1e-3, 0.4, 1.0}, LMOptions{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range trueP {
		if math.Abs(res.Params[i]-want) > 2e-3*math.Max(1, math.Abs(want)) {
			t.Errorf("param[%d] = %g, want %g (all %v)", i, res.Params[i], want, res.Params)
		}
	}
}

func TestLMNoisyFitImprovesSSR(t *testing.T) {
	model := func(x, p []float64) float64 { return p[0]*x[0] + p[1] }
	r := rand.New(rand.NewSource(42))
	xs := [][]float64{}
	ys := []float64{}
	for i := 0; i < 50; i++ {
		x := float64(i) * 0.1
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x+1+0.01*r.NormFloat64())
	}
	start := []float64{0, 0}
	res, err := LevenbergMarquardt(model, xs, ys, start, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params[0]-2) > 0.05 || math.Abs(res.Params[1]-1) > 0.05 {
		t.Errorf("noisy linear fit params %v", res.Params)
	}
}

func TestLMErrors(t *testing.T) {
	model := func(x, p []float64) float64 { return p[0] }
	if _, err := LevenbergMarquardt(model, nil, nil, []float64{1}, LMOptions{}); err == nil {
		t.Error("empty data must error")
	}
	if _, err := LevenbergMarquardt(model, [][]float64{{1}}, []float64{1}, nil, LMOptions{}); err == nil {
		t.Error("empty params must error")
	}
	if _, err := LevenbergMarquardt(model, [][]float64{{1}}, []float64{1}, []float64{1, 2}, LMOptions{}); err == nil {
		t.Error("more params than samples must error")
	}
}
