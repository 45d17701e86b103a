package mlkit

import (
	"cmp"
	"math"
	"slices"
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
	// Tol is the convergence threshold on the largest change of a fitted
	// value f = K'β at a training row over one sweep. Zero defaults to 1e-4.
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
// The dual is solved by block coordinate descent on β = α − α*, with the
// bias folded into the kernel (K' = K + 1), which removes the equality
// constraint Σβ = 0. Copies of a training row share a Gram row, so only
// their coefficient sum B reaches the model, and each block update is an
// exact minimisation over that sum.
//
// The model keeps its own copy of the distinct training rows that carry a
// coefficient and no reference to the caller's matrix.
type SVR struct {
	cfg SVRConfig
	// distinct is the number of bit-distinct training rows.
	distinct int
	// sv holds each distinct row with a non-zero coefficient, in class order.
	sv    []supportVector
	iters int
	// converged records that the last sweep moved no fitted value by Tol or
	// more; false means the fit stopped at MaxIter.
	converged bool
}

// supportVector is one distinct training row and the summed coefficient B
// of its copies.
type supportVector struct {
	row  []float64
	coef float64
}

// lossPiece is one linear piece of a class's ε-insensitive loss: a copy
// with target y moving over [−C, 0] (e = +ε) or [0, C] (e = −ε), at slope
// −(y + e).
type lossPiece struct{ y, e float64 }

// SVRFit trains an SVR on row-major samples x with targets y.
//
// Bit-identical rows form a class g (groupRows) with one Gram row, one
// fitted value f_g and one coefficient B_g = Σ β_i over its copies. With
// k = K'_gg and a = f_g − k·B_g, a sweep visits the classes in order and
// sets B_g to the minimiser of ½k·B² + a·B + φ_g(B), where φ_g is the
// cheapest split of B over the copies: convex and piecewise linear, one
// piece of width C per copy and side of zero, slopes sorted once per fit.
// A one-row class has the pieces [−C, 0] and [0, C], and the walk over
// them is the classic soft-threshold-and-clip update operation for
// operation, so a duplicate-free fit has the bits of the per-sample solver
// (svrFitIndexed in the tests) for the same number of sweeps.
//
// The fit stops once a sweep moves no fitted value by Tol or more: on rows
// that differ in one scaled feature K' is nearly singular, and B can creep
// along its near-null direction long after f has settled.
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
	m := &SVR{cfg: cfg, distinct: u}

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

	// Class g's loss pieces are pieces[start[g]:start[g+1]], two per copy,
	// sorted by ascending slope.
	start := make([]int, u+1)
	for _, g := range groups.of {
		start[g+1] += 2
	}
	for g := 0; g < u; g++ {
		start[g+1] += start[g]
	}
	pieces := make([]lossPiece, 2*n)
	next := append([]int(nil), start[:u]...)
	for i, g := range groups.of {
		pieces[next[g]] = lossPiece{y[i], cfg.Epsilon}
		pieces[next[g]+1] = lossPiece{y[i], -cfg.Epsilon}
		next[g] += 2
	}
	for g := 0; g < u; g++ {
		if ps := pieces[start[g]:start[g+1]]; len(ps) > 2 {
			slices.SortFunc(ps, func(p, q lossPiece) int { return cmp.Compare(q.y+q.e, p.y+p.e) })
		}
	}

	// f[g] = Σ_h B_h K'_gh, maintained incrementally; prev is f at the start
	// of the sweep.
	b := make([]float64, u)
	f := make([]float64, u)
	prev := make([]float64, u)
	for sweep := 0; sweep < cfg.MaxIter; sweep++ {
		copy(prev, f)
		for g := range b {
			// Ranging over the row slice, with f cut to the same length,
			// lets the compiler drop both per-element bounds checks.
			row := km[g*u : g*u+u]
			k := row[g]
			if k <= 0 {
				continue
			}
			nb := blockMin(pieces[start[g]:start[g+1]], f[g]-b[g]*k, k, cfg.C)
			d := nb - b[g]
			if d == 0 {
				continue
			}
			b[g] = nb
			fr := f[:len(row)]
			for h, kgh := range row {
				fr[h] += d * kgh
			}
		}
		m.iters = sweep + 1
		moved := 0.0
		for g, v := range f {
			if ad := math.Abs(v - prev[g]); ad > moved {
				moved = ad
			}
		}
		if moved < cfg.Tol {
			m.converged = true
			break
		}
	}

	for g, c := range b {
		if c != 0 {
			m.sv = append(m.sv, supportVector{append([]float64(nil), x[groups.rep[g]]...), c})
		}
	}
	return m
}

// blockMin returns the B minimising ½k·B² + a·B + φ(B), where φ's pieces ps
// are in ascending slope order, each C wide, the first starting at −mC for
// m = len(ps)/2 copies. On piece j the objective's stationary point is
// (r + e)/k with r = y − a. The first piece whose stationary point lies
// left of its right end holds the minimiser: that point, clipped to the
// piece's left end. If there is none, the minimiser is mC.
func blockMin(ps []lossPiece, a, k, c float64) float64 {
	m := len(ps) / 2
	nb := 0.0
	for j, p := range ps {
		hi := float64(j+1-m) * c
		r := p.y - a
		nb = (r + p.e) / k
		if nb < hi {
			if lo := float64(j-m) * c; nb < lo {
				nb = lo
			}
			return nb
		}
		nb = hi
	}
	return nb
}

// Predict evaluates the fitted model at q: Σ B_g·(K(x_g, q) + 1) over the
// support rows in class order.
func (m *SVR) Predict(q []float64) float64 {
	s := 0.0
	for _, v := range m.sv {
		s += v.coef * (m.cfg.Kernel.Eval(v.row, q) + 1)
	}
	return s
}

// DistinctRows returns the number of bit-distinct rows the model was
// trained on — the side of the kernel matrix the fit actually built.
func (m *SVR) DistinctRows() int { return m.distinct }

// SupportVectors returns the number of distinct training rows with a
// non-zero dual coefficient.
func (m *SVR) SupportVectors() int { return len(m.sv) }

// Iterations returns the number of sweeps performed.
func (m *SVR) Iterations() int { return m.iters }

// Converged reports whether the fit stopped on the Tol criterion
// rather than by exhausting MaxIter sweeps.
func (m *SVR) Converged() bool { return m.converged }
