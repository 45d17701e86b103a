package mlkit

import "math"

// logNormCDF returns log Φ(a) and the inverse Mills ratio λ = φ(a)/Φ(a).
// Below a = −3, where 1 + erf(a/√2) cancels, Φ(a) = φ(a)·R(−a) with the
// Mills ratio R(x) = 1/(x + 1/(x + 2/(x + 3/(x + …)))) cut at 40 terms;
// both branches agree with 0.5·erfc(−a/√2) to 1e-12. math.Erfc is not
// used: nothing else links it, and in place of math.Erf it moves every
// simulator package by 32 bytes mod 64, which read as an 8–16% slower
// chaos_soak benchmark with no simulator code changed (ROADMAP item 21).
func logNormCDF(a float64) (logPhi, lambda float64) {
	logPDF := -0.5*a*a - 0.5*math.Log(2*math.Pi)
	if a > -3 {
		p := 0.5 * (1 + math.Erf(a/math.Sqrt2))
		return math.Log(p), math.Exp(logPDF) / p
	}
	x, r := -a, 0.0
	for k := 40; k > 0; k-- {
		r = float64(k) / (x + r)
	}
	return logPDF - math.Log(x+r), x + r
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
	// MaxIter bounds Newton steps. Zero defaults to 400.
	MaxIter int
}

// TobitFit fits the model. censored[i] marks observations right-censored
// at their recorded value y[i] (the job hit its walltime limit).
//
// The fit runs in Olsen's parametrization γ = β/σ, θ = 1/σ, where the
// log-likelihood ℓ is globally concave: damped Newton steps with step
// halving on ℓ, from γ = 0, θ = 1, until the largest score component is
// below 1e-8·n. A constant or duplicated feature column makes the Hessian
// singular; the step then solves (−H + μI)Δ = g with the smallest
// μ ∈ {0, 1e-10·max diag·10^k} that makes it nonsingular (tobitStep).
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

	// Parameters: γ (intercept last) then θ.
	p := len(x[0]) + 1
	q := p + 1
	cur := make([]float64, q)
	cur[p] = 1
	g := make([]float64, q)
	h := NewMatrix(q, q) // −H, the observed information
	ll := tobitEval(xs, ys, censored, cur, g, h)

	cand := make([]float64, q)
	cg := make([]float64, q)
	ch := NewMatrix(q, q)
	damped := NewMatrix(q, q)
	tol := 1e-8 * float64(n)
	for m.iters < cfg.MaxIter {
		worst := 0.0
		for _, v := range g {
			worst = max(worst, math.Abs(v))
		}
		if worst < tol {
			break
		}
		step := tobitStep(h, g, damped)
		if step == nil {
			break
		}
		m.iters++
		accepted := false
		for t := 1.0; t > 1e-12; t /= 2 {
			for j := range cand {
				cand[j] = cur[j] + t*step[j]
			}
			if cand[p] <= 0 {
				continue
			}
			if cll := tobitEval(xs, ys, censored, cand, cg, ch); cll >= ll {
				cur, cand = cand, cur
				g, cg = cg, g
				h, ch = ch, h
				ll, accepted = cll, true
				break
			}
		}
		if !accepted {
			break
		}
	}
	theta := cur[p]
	m.Weights = make([]float64, p)
	for j := range m.Weights {
		m.Weights[j] = cur[j] / theta
	}
	m.Sigma = 1 / theta
	return m
}

// tobitEval returns the log-likelihood (without its constant) at
// par = (γ, θ) and writes the score into g and the observed information −H
// into h.
func tobitEval(xs [][]float64, ys []float64, censored []bool, par, g []float64, h *Matrix) float64 {
	q := len(par)
	p := q - 1
	theta := par[p]
	for j := range g {
		g[j] = 0
	}
	for j := range h.Data {
		h.Data[j] = 0
	}
	// grad is the gradient of row i's term with respect to its index
	// a = x·γ − θ·y: the score is grad·(x, −y) and −H's row term is
	// curv·(x, −y)(x, −y)ᵀ, plus 1/θ² and the 1/θ score of an
	// uncensored row's log θ.
	v := make([]float64, q)
	ll := 0.0
	for i, row := range xs {
		copy(v, row)
		v[p-1] = 1
		v[p] = -ys[i]
		a := par[p-1] - theta*ys[i]
		for j, xj := range row {
			a += par[j] * xj
		}
		var grad, curv float64
		if censored[i] {
			// ℓᵢ = log Φ(a); dℓ/da = λ, d²ℓ/da² = −λ(a + λ).
			lp, lambda := logNormCDF(a)
			ll += lp
			grad, curv = lambda, lambda*(a+lambda)
		} else {
			// ℓᵢ = log θ − a²/2.
			ll += math.Log(theta) - 0.5*a*a
			grad, curv = -a, 1
			g[p] += 1 / theta
			h.Data[p*q+p] += 1 / (theta * theta)
		}
		for r, vr := range v {
			g[r] += grad * vr
			if vr == 0 {
				continue
			}
			f := curv * vr
			hr := h.Data[r*q : r*q+q]
			for c := r; c < q; c++ {
				hr[c] += f * v[c]
			}
		}
	}
	for r := 1; r < q; r++ {
		for c := 0; c < r; c++ {
			h.Data[r*q+c] = h.Data[c*q+r]
		}
	}
	return ll
}

// tobitStep solves (h + μI)Δ = g for the smallest μ — 0, then 1e-10·max
// diag, ×10 per failure — for which Solve finds the system nonsingular;
// nil if no μ up to max diag does. Solve's pivot test is absolute
// (1e-12), so the system is solved divided by its largest diagonal entry,
// which makes the test relative: a feature column that repeats another up
// to rounding (log nodes and log cores at a fixed core count) then counts
// as singular, rather than sending the two weights to ±1e12 and ℓ into
// rounding noise.
func tobitStep(h *Matrix, g []float64, damped *Matrix) []float64 {
	q := h.Rows
	top := 0.0
	for j := 0; j < q; j++ {
		top = max(top, h.Data[j*q+j])
	}
	if !(top > 0) {
		return nil
	}
	rhs := make([]float64, q)
	for j, v := range g {
		rhs[j] = v / top
	}
	for mu := 0.0; mu <= 1; mu = max(1e-10, 10*mu) {
		for j, v := range h.Data {
			damped.Data[j] = v / top
		}
		for j := 0; j < q; j++ {
			damped.Data[j*q+j] += mu
		}
		if step, err := Solve(damped, rhs); err == nil {
			return step
		}
	}
	return nil
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

// Iterations returns the number of Newton steps the fit took.
func (m *Tobit) Iterations() int { return m.iters }
