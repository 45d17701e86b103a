package mlkit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// svrFitIndexed is the reference coordinate-descent solver: one Gram row and
// one f entry per sample (n×n), the kernel row addressed as km[i*n+j]. It
// returns β, the sweep count and whether the fit stopped on Tol.
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

// svrPredictIndexed is the reference prediction: one kernel evaluation per
// non-zero coefficient, summed in sample order.
func svrPredictIndexed(x [][]float64, beta []float64, k Kernel, q []float64) float64 {
	s := 0.0
	for i, b := range beta {
		if b != 0 {
			s += b * (k.Eval(x[i], q) + 1)
		}
	}
	return s
}

// requireSVRMatchesIndexed holds SVRFit to the sample-indexed solver with ==
// on every β, on the sweep count and stopping reason, on the support set and
// on predictions at the training rows and at 50 fresh query points. It
// returns whether the reference converged.
func requireSVRMatchesIndexed(t *testing.T, name string, xs [][]float64, ys []float64, cfg SVRConfig) bool {
	t.Helper()
	m := SVRFit(xs, ys, cfg)
	beta, iters, converged := svrFitIndexed(xs, ys, cfg)
	if m.Iterations() != iters || m.Converged() != converged {
		t.Errorf("%s: stopped after %d sweeps (converged %v), reference %d (%v)",
			name, m.Iterations(), m.Converged(), iters, converged)
	}
	support := 0
	for i := range beta {
		if m.beta[i] != beta[i] {
			t.Fatalf("%s: beta[%d] = %v, reference %v", name, i, m.beta[i], beta[i])
		}
		if beta[i] != 0 {
			support++
		}
	}
	if m.SupportVectors() != support {
		t.Errorf("%s: %d support vectors, reference %d", name, m.SupportVectors(), support)
	}
	if want := groupRows(xs).distinct(); m.DistinctRows() != want {
		t.Errorf("%s: DistinctRows = %d, want %d", name, m.DistinctRows(), want)
	}
	kernel := cfg.withDefaults(len(xs[0])).Kernel
	rng := rand.New(rand.NewSource(int64(len(xs))))
	queries := append(duplicatedRows(rng, 50, len(xs[0]), 0), xs...)
	for _, q := range queries {
		if got, want := m.Predict(q), svrPredictIndexed(xs, beta, kernel, q); got != want {
			t.Fatalf("%s: Predict(%v) = %v, reference %v", name, q, got, want)
		}
	}
	return converged
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

// TestSVRFitMatchesIndexedReference pins the distinct-row solver to the
// sample-indexed loop it replaced: same operations on the same values in the
// same order, so β, the sweep count and every prediction agree exactly, not
// within a tolerance — on fixed fixtures and on seeded inputs with none, half
// and nine tenths of the rows duplicated, under both kernels, for fits that
// converge and fits that run out of sweeps.
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
		if converged := requireSVRMatchesIndexed(t, tc.name, tc.xs, tc.ys, tc.cfg); converged != tc.wantConverged {
			t.Errorf("%s: reference converged = %v, fixture is meant to cover %v", tc.name, converged, tc.wantConverged)
		}
	}

	// stopped[kernel][converged] counts the seeded fits by how they ended.
	var stopped [2][2]int
	for seed := int64(1); seed <= 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		share := []float64{0, 0.5, 0.9}[seed%3]
		xs := duplicatedRows(rng, 10+rng.Intn(80), 1+rng.Intn(4), share)
		ys := make([]float64, len(xs))
		for i, x := range xs {
			// Copies of a row get different targets, as reruns of one job do.
			ys[i] = math.Sin(x[0]) + 0.05*rng.NormFloat64()
		}
		cfg := SVRConfig{C: 5, Epsilon: 0.1, MaxIter: 40 + 400*int(seed%2)}
		kernel := int(seed / 3 % 2)
		if kernel == 1 {
			cfg.Kernel = LinearKernel{}
		}
		name := fmt.Sprintf("seed %d (n=%d, dup %.0f%%, kernel %T)", seed, len(xs), share*100, cfg.Kernel)
		if requireSVRMatchesIndexed(t, name, xs, ys, cfg) {
			stopped[kernel][1]++
		} else {
			stopped[kernel][0]++
		}
	}
	for k, byEnd := range stopped {
		if byEnd[0] == 0 || byEnd[1] == 0 {
			t.Errorf("kernel %d: %d fits stopped at MaxIter and %d on Tol; the seeds are meant to cover both", k, byEnd[0], byEnd[1])
		}
	}
}

// TestSVRKeepsNoReferenceToTrainingRows overwrites the caller's matrix after
// the fit: the model predicts from its own copy of the support rows.
func TestSVRKeepsNoReferenceToTrainingRows(t *testing.T) {
	xs, ys := duplicateRowData()
	m := SVRFit(xs, ys, SVRConfig{})
	q := []float64{0.3, 0.6, 0.9}
	before := m.Predict(q)
	for _, row := range xs {
		for j := range row {
			row[j] = math.NaN()
		}
	}
	if after := m.Predict(q); after != before {
		t.Errorf("Predict changed from %v to %v when the training matrix was overwritten", before, after)
	}
	if m.DistinctRows() != len(xs)/2 {
		t.Errorf("DistinctRows = %d, want %d", m.DistinctRows(), len(xs)/2)
	}
}
