package mlkit

import (
	"math"
	"math/rand"
	"testing"
)

func TestCrossValidateRanksModels(t *testing.T) {
	// Quadratic data: a flexible RBF SVR must cross-validate better than a
	// constant-mean predictor.
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 150; i++ {
		x := rng.Float64()*4 - 2
		xs = append(xs, []float64{x})
		ys = append(ys, x*x+rng.NormFloat64()*0.05)
	}
	svrErr := CrossValidate(xs, ys, 3, func(tx [][]float64, ty []float64) Regressor {
		return SVRFit(tx, ty, SVRConfig{C: 50, Epsilon: 0.02, Kernel: RBFKernel{Gamma: 1}})
	}, rng)
	meanErr := CrossValidate(xs, ys, 3, func(tx [][]float64, ty []float64) Regressor {
		return constModel(Mean(ty))
	}, rng)
	if svrErr >= meanErr {
		t.Fatalf("SVR CV error %v >= constant model %v", svrErr, meanErr)
	}
	if svrErr > 0.2 {
		t.Errorf("SVR CV error %v too high on a clean quadratic", svrErr)
	}
}

type constModel float64

func (c constModel) Predict([]float64) float64 { return float64(c) }

func TestCrossValidateEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mean := func(tx [][]float64, ty []float64) Regressor { return constModel(Mean(ty)) }
	if err := CrossValidate(nil, nil, 3, mean, rng); !math.IsInf(err, 1) {
		t.Errorf("empty CV = %v, want +Inf (nothing was evaluated)", err)
	}
	// Two samples, k far above n and k below 2: both clamp to leave-one-out,
	// each fold predicting one target from the other.
	for _, k := range []int{50, 0} {
		if err := CrossValidate([][]float64{{1}, {2}}, []float64{5, 8}, k, mean, rng); err != 3 {
			t.Errorf("two-sample CV with k=%d = %v, want 3", k, err)
		}
	}
}

// TestCrossValidateOneSampleIsNotAPerfectScore: one sample leaves no fold
// with both a training and a test row, so no model is ever fit. The error
// used to come back as 0 — the best possible score — and GridSearchSVR
// crowned the first grid point with it.
func TestCrossValidateOneSampleIsNotAPerfectScore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, ys := [][]float64{{1}}, []float64{5}
	fits := 0
	err := CrossValidate(xs, ys, 5, func(tx [][]float64, ty []float64) Regressor {
		fits++
		return constModel(Mean(ty))
	}, rng)
	if fits != 0 || !math.IsInf(err, 1) {
		t.Errorf("one-sample CV = %v after %d fits, want +Inf after none", err, fits)
	}
	if _, best := GridSearchSVR(xs, ys, SVRGrid{}, rng); !math.IsInf(best, 1) {
		t.Errorf("one-sample grid search reports MAE %v for a grid it never evaluated", best)
	}
}

func TestGridSearchFindsFlexibleKernel(t *testing.T) {
	// Data with sharp local structure needs the high-gamma candidate; grid
	// search must not pick the flattest kernel.
	rng := rand.New(rand.NewSource(3))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 120; i++ {
		x := rng.Float64()*10 - 5
		y := 0.0
		if x > 0 {
			y = 4
		}
		xs = append(xs, []float64{x})
		ys = append(ys, y+rng.NormFloat64()*0.05)
	}
	cfg, cvErr := GridSearchSVR(xs, ys, SVRGrid{
		Cs:     []float64{10},
		Gammas: []float64{0.001, 2.0},
	}, rng)
	rbf, ok := cfg.Kernel.(RBFKernel)
	if !ok {
		t.Fatal("grid search returned a non-RBF kernel")
	}
	if rbf.Gamma != 2.0 {
		t.Errorf("picked gamma %v; the step function needs the sharp kernel", rbf.Gamma)
	}
	if cvErr > 0.5 {
		t.Errorf("best CV error = %v", cvErr)
	}
}

func TestGridSearchDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 40; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x)
	}
	cfg, err := GridSearchSVR(xs, ys, SVRGrid{}, rng)
	if cfg.C == 0 || cfg.Kernel == nil {
		t.Fatal("defaults not applied")
	}
	if math.IsInf(err, 1) {
		t.Fatal("no candidate evaluated")
	}
}
