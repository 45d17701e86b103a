package mlkit

import (
	"math"
	"math/rand"
	"testing"
)

// svrFitIndexed is the reference coordinate-descent solver: SVRFit's loop
// with the kernel row addressed as km[i*n+j]. It returns β, the sweep count
// and whether the fit stopped on Tol.
func svrFitIndexed(x [][]float64, y []float64, cfg SVRConfig) ([]float64, int, bool) {
	n := len(x)
	cfg = cfg.withDefaults(len(x[0]))
	beta := make([]float64, n)
	km := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := cfg.Kernel.Eval(x[i], x[j]) + 1
			km[i*n+j] = v
			km[j*n+i] = v
		}
	}
	f := make([]float64, n)
	iters := 0
	for sweep := 0; sweep < cfg.MaxIter; sweep++ {
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			kii := km[i*n+i]
			if kii <= 0 {
				continue
			}
			r := y[i] - (f[i] - beta[i]*kii)
			var nb float64
			switch {
			case r > cfg.Epsilon:
				nb = (r - cfg.Epsilon) / kii
			case r < -cfg.Epsilon:
				nb = (r + cfg.Epsilon) / kii
			}
			if nb > cfg.C {
				nb = cfg.C
			} else if nb < -cfg.C {
				nb = -cfg.C
			}
			d := nb - beta[i]
			if d == 0 {
				continue
			}
			beta[i] = nb
			for j := 0; j < n; j++ {
				f[j] += d * km[i*n+j]
			}
			if ad := math.Abs(d); ad > maxDelta {
				maxDelta = ad
			}
		}
		iters = sweep + 1
		if maxDelta < cfg.Tol {
			return beta, iters, true
		}
	}
	return beta, iters, false
}

// duplicateRowData repeats each feature row with two slightly different
// targets — the shape of an interest window where one (user, app, size) ran
// for different times. No β puts both copies inside the ε-tube, so each
// sweep moves the pair a small fixed step toward ±C and the fit runs out of
// sweeps long before it reaches the box.
func duplicateRowData() (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, row, append([]float64(nil), row...))
		y := rng.NormFloat64()
		ys = append(ys, y, y+0.03)
	}
	return xs, ys
}

// TestSVRFitMatchesIndexedReference pins the bounds-check-free row sweep to
// the indexed loop it replaced: same operations in the same order, so β and
// the sweep count agree exactly, not within a tolerance.
func TestSVRFitMatchesIndexedReference(t *testing.T) {
	lx, ly := linearData()
	sx, sy := sinData()
	dx, dy := duplicateRowData()
	cases := []struct {
		name          string
		xs            [][]float64
		ys            []float64
		cfg           SVRConfig
		wantConverged bool
	}{
		{"linear", lx, ly, SVRConfig{C: 100, Epsilon: 0.05}, false},
		{"rbf", sx, sy, SVRConfig{C: 50, Epsilon: 0.02, Kernel: RBFKernel{Gamma: 1}}, false},
		{"linear-kernel", lx, ly, SVRConfig{C: 1, Kernel: LinearKernel{}, MaxIter: 5000}, true},
		{"duplicate-rows", dx, dy, SVRConfig{C: 10, Epsilon: 0.01, MaxIter: 1500, Kernel: RBFKernel{Gamma: 0.25}}, false},
	}
	for _, tc := range cases {
		m := SVRFit(tc.xs, tc.ys, tc.cfg)
		beta, iters, converged := svrFitIndexed(tc.xs, tc.ys, tc.cfg)
		if m.Iterations() != iters || m.Converged() != converged {
			t.Errorf("%s: stopped after %d sweeps (converged %v), reference %d (%v)",
				tc.name, m.Iterations(), m.Converged(), iters, converged)
		}
		if converged != tc.wantConverged {
			t.Errorf("%s: reference converged = %v, fixture is meant to cover %v", tc.name, converged, tc.wantConverged)
		}
		for i := range beta {
			if m.beta[i] != beta[i] {
				t.Fatalf("%s: beta[%d] = %v, reference %v", tc.name, i, m.beta[i], beta[i])
			}
		}
	}
}
