package mlkit

import (
	"math"
)

// Kernel maps two feature vectors to a similarity value. Eval must be a pure
// function of its arguments' bits and symmetric in them — Eval(a, b) and
// Eval(b, a) the same bits — which SVRFit relies on to build one Gram row
// per distinct training row.
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
//
// The model keeps its own copy of the distinct training rows that carry a
// coefficient and no reference to the caller's matrix.
type SVR struct {
	cfg SVRConfig
	// beta[i] is sample i's dual coefficient.
	beta []float64
	// distinct is the number of bit-distinct training rows.
	distinct int
	// svRows holds each distinct row with at least one non-zero coefficient.
	svRows [][]float64
	// support lists the non-zero coefficients in sample order.
	support []supportTerm
	iters   int
	// converged records that the last sweep moved no coefficient by Tol or
	// more; false means the fit stopped at MaxIter.
	converged bool
}

// supportTerm is one non-zero coefficient and the svRows index of its row.
type supportTerm struct {
	row  int
	beta float64
}

// SVRFit trains an SVR on row-major samples x with targets y.
//
// Bit-identical rows have bit-identical kernel rows, so the solver keeps one
// Gram row and one entry of f = K'β per distinct row (u×u, not n×n): copies
// of a row would receive the same addends in the same order and stay equal
// for the whole fit. The sweep itself still visits all n coordinates in
// index order, each with its own y[i] and β[i], so β, the sweep count and
// the stopping reason are those of the sample-indexed solver exactly
// (svrFitIndexed in the tests).
func SVRFit(x [][]float64, y []float64, cfg SVRConfig) *SVR {
	n := len(x)
	if n == 0 {
		return &SVR{cfg: cfg.withDefaults(0), converged: true}
	}
	if len(y) != n {
		panic("mlkit: SVRFit requires len(x) == len(y)")
	}
	cfg = cfg.withDefaults(len(x[0]))
	groups := groupRows(x)
	u := groups.distinct()
	m := &SVR{cfg: cfg, beta: make([]float64, n), distinct: u}

	// Precompute the augmented kernel matrix K' = K + 1 (bias folding) over
	// the distinct rows.
	km := make([]float64, u*u)
	for g, i := range groups.rep {
		for h := g; h < u; h++ {
			v := cfg.Kernel.Eval(x[i], x[groups.rep[h]]) + 1
			km[g*u+h] = v
			km[h*u+g] = v
		}
	}

	// f[g] = Σ_j β_j K'_gj for any sample of class g, maintained
	// incrementally.
	f := make([]float64, u)
	for sweep := 0; sweep < cfg.MaxIter; sweep++ {
		maxDelta := 0.0
		for i, g := range groups.of {
			kii := km[g*u+g]
			if kii <= 0 {
				continue
			}
			// Residual excluding i's own contribution.
			r := y[i] - (f[g] - m.beta[i]*kii)
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
			row := km[g*u : g*u+u]
			fr := f[:len(row)]
			for h, kgh := range row {
				fr[h] += d * kgh
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

	// svOf[g] is class g's index in svRows, or -1 while it has none.
	svOf := make([]int, u)
	for g := range svOf {
		svOf[g] = -1
	}
	for i, b := range m.beta {
		if b == 0 {
			continue
		}
		g := groups.of[i]
		if svOf[g] < 0 {
			svOf[g] = len(m.svRows)
			m.svRows = append(m.svRows, append([]float64(nil), x[i]...))
		}
		m.support = append(m.support, supportTerm{svOf[g], b})
	}
	return m
}

// Predict evaluates the fitted model at q: the kernel once per distinct
// support row, then the terms β_i·(k+1) summed in sample order.
func (m *SVR) Predict(q []float64) float64 {
	ks := make([]float64, len(m.svRows))
	for r, row := range m.svRows {
		ks[r] = m.cfg.Kernel.Eval(row, q) + 1
	}
	s := 0.0
	for _, t := range m.support {
		s += t.beta * ks[t.row]
	}
	return s
}

// DistinctRows returns the number of bit-distinct rows the model was
// trained on — the side of the kernel matrix the fit actually built.
func (m *SVR) DistinctRows() int { return m.distinct }

// SupportVectors returns the number of samples with non-zero dual
// coefficients.
func (m *SVR) SupportVectors() int { return len(m.support) }

// Iterations returns the number of coordinate-descent sweeps performed.
func (m *SVR) Iterations() int { return m.iters }

// Converged reports whether coordinate descent stopped on the Tol criterion
// rather than by exhausting MaxIter sweeps.
func (m *SVR) Converged() bool { return m.converged }
