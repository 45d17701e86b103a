package mlkit

import (
	"math"
)

// Kernel maps two feature vectors to a similarity value.
type Kernel interface {
	Eval(a, b []float64) float64
}

// RBFKernel is exp(-gamma · ‖a−b‖²).
type RBFKernel struct{ Gamma float64 }

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 {
	return math.Exp(-k.Gamma * SqDist(a, b))
}

// LinearKernel is the plain dot product.
type LinearKernel struct{}

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 { return Dot(a, b) }

// SVRConfig parameterizes ε-insensitive support-vector regression.
type SVRConfig struct {
	// C is the box constraint (regularization inverse). Zero defaults to 10.
	C float64
	// Epsilon is the insensitive-tube half-width. Zero defaults to 0.1.
	Epsilon float64
	// Kernel defaults to RBF with gamma = 1/p.
	Kernel Kernel
	// MaxIter bounds coordinate-descent sweeps. Zero defaults to 200.
	MaxIter int
	// Tol is the convergence threshold on the largest coefficient change
	// per sweep. Zero defaults to 1e-4.
	Tol float64
}

func (c SVRConfig) withDefaults(p int) SVRConfig {
	if c.C == 0 {
		c.C = 10
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Kernel == nil {
		g := 1.0
		if p > 0 {
			g = 1.0 / float64(p)
		}
		c.Kernel = RBFKernel{Gamma: g}
	}
	if c.MaxIter == 0 {
		c.MaxIter = 200
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	return c
}

// SVR is a fitted ε-insensitive support-vector regression model — the
// per-cluster regressor of the estimation framework (Section V-A:
// "a support vector machine (SVM) model for regression (SVR)").
//
// The dual is solved by coordinate descent on β = α − α*, with the bias
// folded into the kernel (K' = K + 1), which removes the equality
// constraint Σβ = 0 and admits a closed-form per-coordinate update with
// soft thresholding at ε.
type SVR struct {
	cfg  SVRConfig
	x    [][]float64
	beta []float64
	// support indexes the non-zero coefficients.
	support []int
	iters   int
	// converged records that the last sweep moved no coefficient by Tol or
	// more; false means the fit stopped at MaxIter.
	converged bool
}

// SVRFit trains an SVR on row-major samples x with targets y.
func SVRFit(x [][]float64, y []float64, cfg SVRConfig) *SVR {
	n := len(x)
	if n == 0 {
		return &SVR{cfg: cfg.withDefaults(0), converged: true}
	}
	if len(y) != n {
		panic("mlkit: SVRFit requires len(x) == len(y)")
	}
	cfg = cfg.withDefaults(len(x[0]))
	m := &SVR{cfg: cfg, x: x, beta: make([]float64, n)}

	// Precompute the augmented kernel matrix K' = K + 1 (bias folding).
	km := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := cfg.Kernel.Eval(x[i], x[j]) + 1
			km[i*n+j] = v
			km[j*n+i] = v
		}
	}

	// f[i] = Σ_j β_j K'_ij, maintained incrementally.
	f := make([]float64, n)
	for sweep := 0; sweep < cfg.MaxIter; sweep++ {
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			kii := km[i*n+i]
			if kii <= 0 {
				continue
			}
			// Residual excluding i's own contribution.
			r := y[i] - (f[i] - m.beta[i]*kii)
			// Soft-threshold at epsilon, then box-clip.
			var nb float64
			switch {
			case r > cfg.Epsilon:
				nb = (r - cfg.Epsilon) / kii
			case r < -cfg.Epsilon:
				nb = (r + cfg.Epsilon) / kii
			default:
				nb = 0
			}
			if nb > cfg.C {
				nb = cfg.C
			} else if nb < -cfg.C {
				nb = -cfg.C
			}
			d := nb - m.beta[i]
			if d == 0 {
				continue
			}
			m.beta[i] = nb
			// Ranging over the row slice, with f cut to the same length,
			// lets the compiler drop both per-element bounds checks.
			row := km[i*n : i*n+n]
			fr := f[:len(row)]
			for j, kij := range row {
				fr[j] += d * kij
			}
			if ad := math.Abs(d); ad > maxDelta {
				maxDelta = ad
			}
		}
		m.iters = sweep + 1
		if maxDelta < cfg.Tol {
			m.converged = true
			break
		}
	}

	for i, b := range m.beta {
		if b != 0 {
			m.support = append(m.support, i)
		}
	}
	return m
}

// Predict evaluates the fitted model at q.
func (m *SVR) Predict(q []float64) float64 {
	s := 0.0
	for _, i := range m.support {
		s += m.beta[i] * (m.cfg.Kernel.Eval(m.x[i], q) + 1)
	}
	return s
}

// SupportVectors returns the number of samples with non-zero dual
// coefficients.
func (m *SVR) SupportVectors() int { return len(m.support) }

// Iterations returns the number of coordinate-descent sweeps performed.
func (m *SVR) Iterations() int { return m.iters }

// Converged reports whether coordinate descent stopped on the Tol criterion
// rather than by exhausting MaxIter sweeps.
func (m *SVR) Converged() bool { return m.converged }
