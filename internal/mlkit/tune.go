package mlkit

import (
	"math"
	"math/rand"
)

// Regressor abstracts a fitted model for cross-validation.
type Regressor interface {
	Predict(x []float64) float64
}

// FitFunc trains a regressor on a fold.
type FitFunc func(xs [][]float64, ys []float64) Regressor

// CrossValidate estimates a model's mean absolute error by k-fold
// cross-validation with a deterministic shuffle. k is clamped to
// [2, len(xs)], so every fold has a test and a training sample. With fewer
// than two samples no fold exists: the model was never evaluated and the
// error is +Inf, which loses every comparison, rather than a perfect 0.
func CrossValidate(xs [][]float64, ys []float64, k int, fit FitFunc, rng *rand.Rand) float64 {
	n := len(xs)
	if n < 2 {
		return math.Inf(1)
	}
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	perm := rng.Perm(n)

	totalErr, count := 0.0, 0
	for fold := 0; fold < k; fold++ {
		var trX, teX [][]float64
		var trY, teY []float64
		for i, p := range perm {
			if i%k == fold {
				teX = append(teX, xs[p])
				teY = append(teY, ys[p])
			} else {
				trX = append(trX, xs[p])
				trY = append(trY, ys[p])
			}
		}
		m := fit(trX, trY)
		for i, x := range teX {
			totalErr += math.Abs(m.Predict(x) - teY[i])
			count++
		}
	}
	return totalErr / float64(count)
}

// SVRGrid is the hyperparameter grid for GridSearchSVR.
type SVRGrid struct {
	Cs      []float64
	Gammas  []float64
	Epsilon float64
	// Folds for cross-validation (default 3).
	Folds int
	// MaxIter per candidate fit (default 400 — tuning fits are many).
	MaxIter int
}

func (g SVRGrid) withDefaults() SVRGrid {
	if len(g.Cs) == 0 {
		g.Cs = []float64{1, 10, 50}
	}
	if len(g.Gammas) == 0 {
		g.Gammas = []float64{0.05, 0.25, 1.0}
	}
	if g.Epsilon == 0 {
		g.Epsilon = 0.02
	}
	if g.Folds == 0 {
		g.Folds = 3
	}
	if g.MaxIter == 0 {
		g.MaxIter = 400
	}
	return g
}

// GridSearchSVR cross-validates every (C, gamma) pair and returns the
// configuration with the lowest mean absolute error plus that error.
// Deterministic for a given rng.
func GridSearchSVR(xs [][]float64, ys []float64, grid SVRGrid, rng *rand.Rand) (SVRConfig, float64) {
	grid = grid.withDefaults()
	best := SVRConfig{C: grid.Cs[0], Epsilon: grid.Epsilon, Kernel: RBFKernel{Gamma: grid.Gammas[0]}, MaxIter: grid.MaxIter}
	bestErr := math.Inf(1)
	for _, c := range grid.Cs {
		for _, gamma := range grid.Gammas {
			cfg := SVRConfig{C: c, Epsilon: grid.Epsilon, Kernel: RBFKernel{Gamma: gamma}, MaxIter: grid.MaxIter}
			err := CrossValidate(xs, ys, grid.Folds, func(tx [][]float64, ty []float64) Regressor {
				return SVRFit(tx, ty, cfg)
			}, rng)
			if err < bestErr {
				bestErr = err
				best = cfg
			}
		}
	}
	return best, bestErr
}
