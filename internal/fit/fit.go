// Package fit provides the parameter-extraction machinery behind ssnkit's
// device models: multi-variable linear least squares, polynomial fitting,
// Levenberg-Marquardt nonlinear fitting, and goodness-of-fit statistics.
//
// The ASDM extraction (paper Sec. 2) is a linear least-squares problem in
// (K, K·V0, K·a); the alpha-power extraction (the baseline the paper
// compares against) is nonlinear in alpha and uses Levenberg-Marquardt.
package fit

import (
	"errors"
	"fmt"
	"math"

	"ssnkit/internal/linalg"
)

// ErrBadInput reports malformed sample data.
var ErrBadInput = errors.New("fit: bad input")

// Stats summarizes goodness of fit of predictions against observations.
type Stats struct {
	RMSE     float64 // root mean square error
	MaxAbs   float64 // worst absolute residual
	R2       float64 // coefficient of determination
	N        int     // number of samples
	MeanAbs  float64 // mean absolute residual
	MaxRel   float64 // worst relative error (floor-protected)
	RelFloor float64 // the floor used for MaxRel
}

// Evaluate computes fit statistics for predicted vs observed values.
// relFloor protects relative errors when observations are near zero; a
// typical choice is a few percent of the observation range.
func Evaluate(pred, obs []float64, relFloor float64) (Stats, error) {
	if len(pred) != len(obs) || len(pred) == 0 {
		return Stats{}, fmt.Errorf("%w: %d predictions vs %d observations", ErrBadInput, len(pred), len(obs))
	}
	var s Stats
	s.N = len(obs)
	s.RelFloor = relFloor
	mean := 0.0
	for _, o := range obs {
		mean += o
	}
	mean /= float64(len(obs))
	ssRes, ssTot := 0.0, 0.0
	for i := range obs {
		r := pred[i] - obs[i]
		ssRes += r * r
		d := obs[i] - mean
		ssTot += d * d
		ar := math.Abs(r)
		s.MeanAbs += ar
		if ar > s.MaxAbs {
			s.MaxAbs = ar
		}
		den := math.Abs(obs[i])
		if den < relFloor {
			den = relFloor
		}
		if rel := ar / den; rel > s.MaxRel {
			s.MaxRel = rel
		}
	}
	s.RMSE = math.Sqrt(ssRes / float64(s.N))
	s.MeanAbs /= float64(s.N)
	if ssTot > 0 {
		s.R2 = 1 - ssRes/ssTot
	} else if ssRes == 0 {
		s.R2 = 1
	}
	return s, nil
}

// Linear solves the multi-linear model y ≈ Σ c_j * x_j for the coefficient
// vector c, where rows[i] holds the regressors of sample i. Include a
// constant 1 regressor for an intercept term.
func Linear(rows [][]float64, y []float64) ([]float64, error) {
	if len(rows) == 0 || len(rows) != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrBadInput, len(rows), len(y))
	}
	a := linalg.FromRows(rows)
	return linalg.LeastSquares(a, y)
}
