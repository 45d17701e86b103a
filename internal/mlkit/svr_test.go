package mlkit

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// linearKernel is the plain dot product, a second kernel for the fits
// below beside the default RBF.
type linearKernel struct{}

func (linearKernel) Eval(a, b []float64) float64 { return Dot(a, b) }

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

// duplicateRowData repeats each feature row of a smooth target with two
// targets 0.03 apart — the shape of an interest window where one (user,
// app, size) ran for different times. Under a tube narrower than the gap no
// β puts both copies inside it, so the per-sample solver moves each pair a
// small step toward ±C per sweep, the copies pulling against each other.
func duplicateRowData() (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, row, append([]float64(nil), row...))
		y := math.Sin(3 * row[0])
		ys = append(ys, y, y+0.03)
	}
	return xs, ys
}

// svrDual is the dual objective ½βᵀK'β − yᵀβ + ε‖β‖₁ of the per-sample
// coefficients β, the quantity both solvers descend.
func svrDual(x [][]float64, y, beta []float64, cfg SVRConfig) float64 {
	cfg = cfg.withDefaults(len(x[0]))
	v := 0.0
	for i, bi := range beta {
		if bi == 0 {
			continue
		}
		for j, bj := range beta {
			v += 0.5 * bi * bj * (cfg.Kernel.Eval(x[i], x[j]) + 1)
		}
		v += cfg.Epsilon*math.Abs(bi) - y[i]*bi
	}
	return v
}

// classLoss is φ(B) for copies with targets ys: the cheapest Σ ε|β_i| − y_iβ_i
// over β_i ∈ [−C, C] summing to B, by filling the 2m unit pieces in
// ascending slope order from B = −mC.
func classLoss(ys []float64, eps, c, b float64) float64 {
	var slopes []float64
	v := 0.0
	for _, y := range ys {
		slopes = append(slopes, -eps-y, eps-y)
		v += (eps + y) * c
	}
	sort.Float64s(slopes)
	rest := b + float64(len(ys))*c
	for _, s := range slopes {
		w := math.Min(rest, c)
		if w <= 0 {
			break
		}
		v += s * w
		rest -= w
	}
	return v
}

// svrModelDual is the dual objective at SVRFit's answer: ½BᵀK'B over the
// classes plus each class's loss at its coefficient sum — the least
// per-sample objective any split of those sums reaches.
func svrModelDual(t *testing.T, m *SVR, x [][]float64, y []float64) float64 {
	t.Helper()
	groups := groupRows(x)
	members := make([][]float64, groups.distinct())
	for i, g := range groups.of {
		members[g] = append(members[g], y[i])
	}
	// m.sv lists the classes with a non-zero coefficient in class order.
	coef := make([]float64, groups.distinct())
	s := 0
	for g, i := range groups.rep {
		if s < len(m.sv) && compareBits(m.sv[s].row, x[i]) == 0 {
			coef[g] = m.sv[s].coef
			s++
		}
	}
	if s != len(m.sv) {
		t.Fatalf("%d support vectors, %d matched classes in class order", len(m.sv), s)
	}
	v := 0.0
	for g, bg := range coef {
		for h, bh := range coef {
			v += 0.5 * bg * bh * (m.cfg.Kernel.Eval(x[groups.rep[g]], x[groups.rep[h]]) + 1)
		}
		v += classLoss(members[g], m.cfg.Epsilon, m.cfg.C, bg)
	}
	return v
}

// TestSVRFitDistinctRowsMatchIndexedReference pins the class-block solver
// to the per-sample loop on duplicate-free inputs: every class is one row,
// the block update is the soft-threshold-and-clip update, so with the sweep
// count forced (Tol below any change) the coefficients, the sweep count and
// every prediction agree exactly, not within a tolerance — on fixed
// fixtures and on seeded inputs, under both kernels.
func TestSVRFitDistinctRowsMatchIndexedReference(t *testing.T) {
	lx, ly := linearData()
	sx, sy := sinData()
	type fixture struct {
		name string
		xs   [][]float64
		ys   []float64
		cfg  SVRConfig
	}
	cases := []fixture{
		{"linear", lx, ly, SVRConfig{C: 100, Epsilon: 0.05, MaxIter: 200}},
		{"rbf", sx, sy, SVRConfig{C: 50, Epsilon: 0.02, Kernel: RBFKernel{Gamma: 1}, MaxIter: 200}},
		{"linear-kernel", lx, ly, SVRConfig{C: 1, Kernel: linearKernel{}, MaxIter: 300}},
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs := duplicatedRows(rng, 10+rng.Intn(80), 1+rng.Intn(4), 0)
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = math.Sin(x[0]) + 0.05*rng.NormFloat64()
		}
		cfg := SVRConfig{C: 5, Epsilon: 0.1, MaxIter: 10 + 100*int(seed%3)}
		if seed%2 == 1 {
			cfg.Kernel = linearKernel{}
		}
		cases = append(cases, fixture{fmt.Sprintf("seed %d (n=%d, kernel %T)", seed, len(xs), cfg.Kernel), xs, ys, cfg})
	}
	for _, tc := range cases {
		if u := groupRows(tc.xs).distinct(); u != len(tc.xs) {
			t.Fatalf("%s: %d distinct rows of %d; the fixture must be duplicate-free", tc.name, u, len(tc.xs))
		}
		tc.cfg.Tol = math.SmallestNonzeroFloat64
		m := SVRFit(tc.xs, tc.ys, tc.cfg)
		beta, iters, _ := svrFitIndexed(tc.xs, tc.ys, tc.cfg)
		if m.Iterations() != iters {
			t.Errorf("%s: %d sweeps, reference %d", tc.name, m.Iterations(), iters)
		}
		s := 0
		for i, b := range beta {
			if b == 0 {
				continue
			}
			if s >= len(m.sv) || m.sv[s].coef != b || compareBits(m.sv[s].row, tc.xs[i]) != 0 {
				t.Fatalf("%s: support vector %d does not match reference row %d (β = %v)", tc.name, s, i, b)
			}
			s++
		}
		if s != len(m.sv) {
			t.Fatalf("%s: %d support vectors, reference %d", tc.name, len(m.sv), s)
		}
		kernel := tc.cfg.withDefaults(len(tc.xs[0])).Kernel
		rng := rand.New(rand.NewSource(int64(len(tc.xs))))
		for _, q := range append(duplicatedRows(rng, 50, len(tc.xs[0]), 0), tc.xs...) {
			if got, want := m.Predict(q), svrPredictIndexed(tc.xs, beta, kernel, q); got != want {
				t.Fatalf("%s: Predict(%v) = %v, reference %v", tc.name, q, got, want)
			}
		}
	}
}

// bruteClassLoss is φ(B) by enumeration: some minimiser has every copy but
// one at a breakpoint of its loss (−C, 0 or C), so try each copy as the free
// one against every assignment of the others.
func bruteClassLoss(ys []float64, eps, c, b float64) float64 {
	m := len(ys)
	best := math.Inf(1)
	assign := make([]float64, m)
	for free := 0; free < m; free++ {
		for code := 0; code < int(math.Pow(3, float64(m-1))); code++ {
			sum, rest := 0.0, code
			for i := range assign {
				if i == free {
					continue
				}
				assign[i] = float64(rest%3-1) * c
				rest /= 3
				sum += assign[i]
			}
			assign[free] = b - sum
			if math.Abs(assign[free]) > c*(1+1e-12) {
				continue
			}
			v := 0.0
			for i, bi := range assign {
				v += eps*math.Abs(bi) - ys[i]*bi
			}
			best = math.Min(best, v)
		}
	}
	return best
}

// TestSVRBlockMatchesBruteForce fits m copies of one row with different
// targets: the fit is a single block, so its coefficient must be the
// minimiser of ½k·B² + φ(B), found here by scanning B over [−mC, mC] with
// φ enumerated, to within the scan's step. The fixtures reach interior
// roots, breakpoints and both ends of the box.
func TestSVRBlockMatchesBruteForce(t *testing.T) {
	const steps = 2000
	row := []float64{0.3, -0.7}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		copies := 2 + rng.Intn(4)
		cfg := SVRConfig{
			C:       []float64{0.05, 0.5, 2, 20}[seed%4],
			Epsilon: []float64{0.01, 0.1, 0.4}[seed%3],
		}
		if seed%2 == 0 {
			cfg.Kernel = linearKernel{}
		}
		center, spread := 3*rng.NormFloat64(), []float64{0.05, 0.5, 2}[seed%3]
		xs := make([][]float64, copies)
		ys := make([]float64, copies)
		for i := range xs {
			xs[i] = append([]float64(nil), row...)
			ys[i] = center + spread*rng.NormFloat64()
		}
		m := SVRFit(xs, ys, cfg)
		got := 0.0
		if len(m.sv) == 1 {
			got = m.sv[0].coef
		}
		k := m.cfg.Kernel.Eval(row, row) + 1
		lim := float64(copies) * m.cfg.C
		h := 2 * lim / steps
		best, bestV := 0.0, math.Inf(1)
		for s := 0; s <= steps; s++ {
			b := -lim + float64(s)*h
			if v := 0.5*k*b*b + bruteClassLoss(ys, m.cfg.Epsilon, m.cfg.C, b); v < bestV {
				best, bestV = b, v
			}
		}
		if math.Abs(got-best) > h {
			t.Errorf("seed %d (%d copies, C %v, ε %v, k %v): B = %v, brute-force minimiser %v ± %v",
				seed, copies, m.cfg.C, m.cfg.Epsilon, k, got, best, h)
		}
		if !m.Converged() {
			t.Errorf("seed %d: a single block did not converge in %d sweeps", seed, m.Iterations())
		}
	}
}

// TestSVRDualObjectiveNoWorseThanIndexedReference compares the two solvers
// where they differ — on duplicated rows — by what both minimise, on seeded
// inputs with none, half and nine tenths of the rows duplicated and copies
// given different targets, as reruns of one job are.
//
// Every block update is an exact minimisation, so the dual objective never
// rises from one sweep to the next, under either kernel. Run to a tight Tol
// under the RBF kernel (K' positive definite on distinct rows), SVRFit's
// answer is no worse than the per-sample solver's after as many sweeps.
// The per-sample solver can be ahead after a few forced sweeps (it visits a
// class once per copy), and under the linear kernel K' is singular once the
// distinct rows outnumber the features plus one, so a sweep can move B along
// its null space without moving f and the stop rule can end on such a
// plateau; neither is asserted.
func TestSVRDualObjectiveNoWorseThanIndexedReference(t *testing.T) {
	for seed := int64(1); seed <= 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		share := []float64{0, 0.5, 0.9}[seed%3]
		xs := duplicatedRows(rng, 10+rng.Intn(60), 1+rng.Intn(4), share)
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = math.Sin(x[0]) + 0.05*rng.NormFloat64()
		}
		cfg := SVRConfig{C: 5, Epsilon: 0.1, Kernel: RBFKernel{Gamma: []float64{0.25, 1}[seed/3%2]}}
		if seed%4 == 1 {
			cfg.Kernel = linearKernel{}
		}
		name := fmt.Sprintf("seed %d (n=%d, dup %.0f%%, kernel %T)", seed, len(xs), share*100, cfg.Kernel)

		prev := 0.0
		for sweeps := 1; sweeps <= 12; sweeps++ {
			forced := cfg
			forced.MaxIter, forced.Tol = sweeps, math.SmallestNonzeroFloat64
			v := svrModelDual(t, SVRFit(xs, ys, forced), xs, ys)
			if v > prev+1e-12*math.Max(1, math.Abs(prev)) {
				t.Errorf("%s: dual objective rose from %v to %v in sweep %d", name, prev, v, sweeps)
			}
			prev = v
		}

		if _, linear := cfg.Kernel.(linearKernel); linear {
			continue
		}
		tight := cfg
		tight.MaxIter, tight.Tol = 100000, 1e-12
		m := SVRFit(xs, ys, tight)
		ref := cfg
		ref.MaxIter, ref.Tol = m.Iterations(), math.SmallestNonzeroFloat64
		beta, _, _ := svrFitIndexed(xs, ys, ref)
		got, want := svrModelDual(t, m, xs, ys), svrDual(xs, ys, beta, cfg)
		if !m.Converged() || got > want+1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s: dual objective %v after %d sweeps (converged %v), per-sample solver %v",
				name, got, m.Iterations(), m.Converged(), want)
		}
	}
}

// TestSVRConvergesOnDuplicatedRows is the case that motivated the block
// update: pairs of copies 0.03 apart under ε = 0.01 keep the per-sample
// solver creeping until MaxIter, while one exact step per class settles the
// fit in a tenth of the sweeps.
func TestSVRConvergesOnDuplicatedRows(t *testing.T) {
	xs, ys := duplicateRowData()
	cfg := SVRConfig{C: 10, Epsilon: 0.01, MaxIter: 1500, Kernel: RBFKernel{Gamma: 1}}
	if _, iters, converged := svrFitIndexed(xs, ys, cfg); converged {
		t.Fatalf("the per-sample solver converged in %d sweeps; the fixture no longer shows the creep", iters)
	}
	m := SVRFit(xs, ys, cfg)
	if !m.Converged() || m.Iterations() > cfg.MaxIter/10 {
		t.Errorf("SVRFit: %d sweeps, converged %v", m.Iterations(), m.Converged())
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
