package mlkit

import "math"

// BayesianRidge is Bayesian linear regression with evidence-maximized
// hyperparameters (MacKay's iterative update), the third member of the
// IRPA ensemble baseline (Wu et al.).
type BayesianRidge struct {
	// Weights includes the intercept as the last element.
	Weights []float64
	// Alpha is the noise precision, Lambda the weight precision.
	Alpha, Lambda float64
	iters         int
}

// BayesianRidgeFit fits the model on row-major x with targets y, running
// at most maxIter evidence updates (0 defaults to 50).
func BayesianRidgeFit(x [][]float64, y []float64, maxIter int) *BayesianRidge {
	n := len(x)
	m := &BayesianRidge{Alpha: 1, Lambda: 1}
	if n == 0 {
		return m
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	p := len(x[0]) + 1 // +1 intercept

	// Design matrix with intercept column.
	xd := NewMatrix(n, p)
	for i, row := range x {
		for j, v := range row {
			xd.Set(i, j, v)
		}
		xd.Set(i, p-1, 1)
	}
	gram := Gram(xd)
	xty := MulTVec(xd, y)

	// (alpha, lambda) drive the evidence iteration; m.Weights and
	// (m.Alpha, m.Lambda) are replaced together, only by a solve that
	// succeeded, so the returned pair is always the one that produced the
	// weights.
	alpha, lambda := m.Alpha, m.Lambda
	for it := 0; it < maxIter; it++ {
		m.iters = it + 1
		// Posterior mean: (λI + αXᵀX)⁻¹ αXᵀy.
		a := NewMatrix(p, p)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				a.Set(i, j, alpha*gram.At(i, j))
			}
			a.Add(i, i, lambda)
		}
		b := make([]float64, p)
		for j := range b {
			b[j] = alpha * xty[j]
		}
		w, err := Solve(a, b)
		if err != nil {
			// Degenerate design: heavier regularization and retry next
			// iteration.
			lambda *= 10
			continue
		}
		m.Weights, m.Alpha, m.Lambda = w, alpha, lambda
		// Effective degrees of freedom γ = p − λ·trace(A⁻¹).
		inv, err := Inverse(a)
		if err != nil {
			lambda *= 10
			continue
		}
		trace := 0.0
		for i := 0; i < p; i++ {
			trace += inv.At(i, i)
		}
		gamma := float64(p) - lambda*trace
		if gamma < 1e-9 {
			gamma = 1e-9
		}
		// Residual sum of squares.
		pred := xd.MulVec(w)
		rss := 0.0
		for i := range y {
			d := y[i] - pred[i]
			rss += d * d
		}
		wss := Dot(w, w)
		newLambda := gamma / math.Max(wss, 1e-12)
		newAlpha := (float64(n) - gamma) / math.Max(rss, 1e-12)
		if newAlpha <= 0 {
			newAlpha = alpha
		}
		if math.Abs(newLambda-lambda) < 1e-6*lambda &&
			math.Abs(newAlpha-alpha) < 1e-6*alpha {
			break
		}
		lambda, alpha = newLambda, newAlpha
	}
	return m
}

// Predict evaluates the posterior mean at q.
func (m *BayesianRidge) Predict(q []float64) float64 {
	if len(m.Weights) == 0 {
		return 0
	}
	s := m.Weights[len(m.Weights)-1] // intercept
	for j, v := range q {
		if j < len(m.Weights)-1 {
			s += m.Weights[j] * v
		}
	}
	return s
}

// Iterations returns the number of evidence updates performed.
func (m *BayesianRidge) Iterations() int { return m.iters }
