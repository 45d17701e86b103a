package mlkit

import "math"

// normPDF is the standard normal density.
func normPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// normCDF is the standard normal distribution function.
func normCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// Tobit is a right-censored (type-1 Tobit) linear regression fitted by
// maximum likelihood — the data-truncation-aware regressor behind the TRIP
// baseline (Fan et al., CLUSTER'17): observed runtimes are censored at the
// requested walltime when the RM kills the job at its limit.
type Tobit struct {
	// Weights includes the intercept as the last element (in standardized
	// feature space).
	Weights []float64
	// Sigma is the fitted noise scale (in standardized target space).
	Sigma float64

	xs    *StandardScaler
	yMean float64
	yStd  float64
	iters int
}

// TobitConfig parameterizes the MLE optimizer.
type TobitConfig struct {
	// MaxIter bounds gradient-ascent steps. Zero defaults to 400.
	MaxIter int
}

// tobitLearnRate is the optimizer's initial step size; it decays as
// tobitLearnRate/(1 + 0.01·it).
const tobitLearnRate = 0.05

// TobitFit fits the model. censored[i] marks observations right-censored
// at their recorded value y[i] (the job hit its walltime limit).
func TobitFit(x [][]float64, y []float64, censored []bool, cfg TobitConfig) *Tobit {
	n := len(x)
	m := &Tobit{Sigma: 1}
	if n == 0 {
		return m
	}
	if len(y) != n || len(censored) != n {
		panic("mlkit: TobitFit requires len(x) == len(y) == len(censored)")
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 400
	}

	// Standardize features and target for optimizer stability.
	m.xs = FitScaler(x)
	xs := m.xs.TransformAll(x)
	m.yMean = Mean(y)
	m.yStd = math.Sqrt(Variance(y))
	if m.yStd < 1e-12 {
		m.yStd = 1
	}
	ys := make([]float64, n)
	for i, v := range y {
		ys[i] = (v - m.yMean) / m.yStd
	}

	p := len(x[0]) + 1
	w := make([]float64, p) // last = intercept
	logSigma := 0.0

	pred := func(row []float64) float64 {
		s := w[p-1]
		for j, v := range row {
			s += w[j] * v
		}
		return s
	}

	grad := make([]float64, p)
	for it := 0; it < cfg.MaxIter; it++ {
		m.iters = it + 1
		sigma := math.Exp(logSigma)
		for j := range grad {
			grad[j] = 0
		}
		gLogSigma := 0.0
		for i, row := range xs {
			mu := pred(row)
			z := (ys[i] - mu) / sigma
			if !censored[i] {
				// ∂ℓ/∂w = z/σ · x, ∂ℓ/∂logσ = z² − 1.
				f := z / sigma
				for j, v := range row {
					grad[j] += f * v
				}
				grad[p-1] += f
				gLogSigma += z*z - 1
			} else {
				// Right-censored at ys[i]: ℓ = log(1 − Φ(z)).
				surv := 1 - normCDF(z)
				if surv < 1e-12 {
					surv = 1e-12
				}
				lambda := normPDF(z) / surv
				f := lambda / sigma
				for j, v := range row {
					grad[j] += f * v
				}
				grad[p-1] += f
				gLogSigma += lambda * z
			}
		}
		// Average and step with decay.
		lr := tobitLearnRate / (1 + 0.01*float64(it))
		scale := lr / float64(n)
		maxStep := 0.0
		for j := range w {
			step := scale * grad[j]
			w[j] += step
			if s := math.Abs(step); s > maxStep {
				maxStep = s
			}
		}
		logSigma += scale * gLogSigma
		if logSigma > 3 {
			logSigma = 3
		} else if logSigma < -6 {
			logSigma = -6
		}
		if maxStep < 1e-7 {
			break
		}
	}
	m.Weights = w
	m.Sigma = math.Exp(logSigma)
	return m
}

// Predict returns the fitted latent mean at q, mapped back to the original
// target scale.
func (m *Tobit) Predict(q []float64) float64 {
	if len(m.Weights) == 0 {
		return 0
	}
	row := m.xs.Transform(q)
	s := m.Weights[len(m.Weights)-1]
	for j, v := range row {
		if j < len(m.Weights)-1 {
			s += m.Weights[j] * v
		}
	}
	return s*m.yStd + m.yMean
}

// Iterations returns the optimizer step count.
func (m *Tobit) Iterations() int { return m.iters }
