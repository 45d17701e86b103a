package mlkit

import (
	"math"
	"math/rand"
	"testing"
)

// --- K-means ---------------------------------------------------------------

func blobs(rng *rand.Rand, centers [][]float64, perCluster int, spread float64) ([][]float64, []int) {
	var xs [][]float64
	var labels []int
	for c, cen := range centers {
		for i := 0; i < perCluster; i++ {
			row := make([]float64, len(cen))
			for j, v := range cen {
				row[j] = v + rng.NormFloat64()*spread
			}
			xs = append(xs, row)
			labels = append(labels, c)
		}
	}
	return xs, labels
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	xs, labels := blobs(rng, centers, 50, 0.5)
	km := KMeansFit(xs, 3, 0, rng)
	if km.K() != 3 {
		t.Fatalf("K = %d", km.K())
	}
	// Every pair from the same blob must share a cluster.
	assign := km.Assign(xs)
	for i := 1; i < len(xs); i++ {
		if labels[i] == labels[i-1] && assign[i] != assign[i-1] {
			t.Fatalf("samples %d,%d from same blob split across clusters", i-1, i)
		}
	}
	for _, sz := range km.Sizes {
		if sz != 50 {
			t.Errorf("cluster size %d, want 50", sz)
		}
	}
}

func TestKMeansMoreClustersThanSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := [][]float64{{1}, {2}}
	km := KMeansFit(xs, 10, 0, rng)
	if km.K() != 2 {
		t.Errorf("K = %d, want clamp to 2", km.K())
	}
}

func TestKMeansEmpty(t *testing.T) {
	km := KMeansFit(nil, 3, 0, rand.New(rand.NewSource(1)))
	if km.K() != 0 {
		t.Error("empty fit must produce no centroids")
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, _ := blobs(rng, [][]float64{{0, 0}, {8, 8}, {0, 8}, {8, 0}}, 40, 1.0)
	i2 := KMeansFit(xs, 2, 0, rng).Inertia
	i4 := KMeansFit(xs, 4, 0, rng).Inertia
	if i4 >= i2 {
		t.Errorf("inertia(4)=%v >= inertia(2)=%v", i4, i2)
	}
}

func TestChooseKElbowFindsBlobCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, _ := blobs(rng, [][]float64{{0, 0}, {20, 0}, {0, 20}, {20, 20}}, 40, 0.5)
	k := ChooseKElbow(xs, 1, 10, 50, rng)
	if k < 3 || k > 5 {
		t.Errorf("elbow K = %d, want ~4", k)
	}
}

// --- SVR --------------------------------------------------------------------

// linearData samples y = 3x + 1 on [-2, 2).
func linearData() (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 120; i++ {
		x := rng.Float64()*4 - 2
		xs = append(xs, []float64{x})
		ys = append(ys, 3*x+1)
	}
	return xs, ys
}

// sinData samples y = sin(x) on [-3, 3).
func sinData() (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x := rng.Float64()*6 - 3
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(x))
	}
	return xs, ys
}

func TestSVRFitsLinearFunction(t *testing.T) {
	xs, ys := linearData()
	m := SVRFit(xs, ys, SVRConfig{C: 100, Epsilon: 0.05})
	for _, q := range []float64{-1.5, 0, 1.5} {
		got := m.Predict([]float64{q})
		want := 3*q + 1
		if math.Abs(got-want) > 0.3 {
			t.Errorf("f(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSVRFitsNonlinearWithRBF(t *testing.T) {
	xs, ys := sinData()
	m := SVRFit(xs, ys, SVRConfig{C: 50, Epsilon: 0.02, Kernel: RBFKernel{Gamma: 1}})
	errSum := 0.0
	n := 0
	for q := -2.5; q <= 2.5; q += 0.25 {
		errSum += math.Abs(m.Predict([]float64{q}) - math.Sin(q))
		n++
	}
	if mae := errSum / float64(n); mae > 0.15 {
		t.Errorf("MAE = %v on sin(x)", mae)
	}
}

func TestSVREpsilonSparsity(t *testing.T) {
	// With a wide tube and data inside it, most coefficients stay zero.
	rng := rand.New(rand.NewSource(6))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, 5.0+rng.NormFloat64()*0.01)
	}
	wide := SVRFit(xs, ys, SVRConfig{C: 10, Epsilon: 1.0})
	tight := SVRFit(xs, ys, SVRConfig{C: 10, Epsilon: 0.001})
	if wide.SupportVectors() >= tight.SupportVectors() {
		t.Errorf("wide-tube SVs (%d) should be fewer than tight-tube SVs (%d)",
			wide.SupportVectors(), tight.SupportVectors())
	}
}

func TestSVREmptyFit(t *testing.T) {
	m := SVRFit(nil, nil, SVRConfig{})
	if m.Predict([]float64{1}) != 0 {
		t.Error("empty SVR must predict 0")
	}
}

func TestSVRConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 50; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x)
	}
	m := SVRFit(xs, ys, SVRConfig{MaxIter: 500})
	if m.Iterations() >= 500 {
		t.Errorf("SVR did not converge in %d sweeps", m.Iterations())
	}
}

// --- Regression tree / forest ------------------------------------------------

func stepData(rng *rand.Rand, n int) ([][]float64, []float64) {
	var xs [][]float64
	var ys []float64
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		y := 1.0
		if x > 5 {
			y = 9.0
		}
		xs = append(xs, []float64{x})
		ys = append(ys, y)
	}
	return xs, ys
}

func TestTreeLearnsStepFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs, ys := stepData(rng, 200)
	tr := TreeFit(xs, ys, TreeConfig{})
	if got := tr.Predict([]float64{2}); math.Abs(got-1) > 0.01 {
		t.Errorf("f(2) = %v, want 1", got)
	}
	if got := tr.Predict([]float64{8}); math.Abs(got-9) > 0.01 {
		t.Errorf("f(8) = %v, want 9", got)
	}
	if tr.Depth() == 0 || tr.Nodes() < 3 {
		t.Errorf("degenerate tree: depth=%d nodes=%d", tr.Depth(), tr.Nodes())
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, rng.Float64())
	}
	tr := TreeFit(xs, ys, TreeConfig{MaxDepth: 3})
	if tr.Depth() > 3 {
		t.Errorf("depth %d > max 3", tr.Depth())
	}
}

func TestTreeConstantTargetIsLeaf(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{5, 5, 5, 5}
	tr := TreeFit(xs, ys, TreeConfig{})
	if tr.Nodes() != 1 {
		t.Errorf("constant target built %d nodes", tr.Nodes())
	}
	if tr.Predict([]float64{10}) != 5 {
		t.Error("wrong constant prediction")
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	gen := func(n int) ([][]float64, []float64) {
		var xs [][]float64
		var ys []float64
		for i := 0; i < n; i++ {
			a, b := rng.Float64()*4, rng.Float64()*4
			xs = append(xs, []float64{a, b})
			ys = append(ys, a*2+b+rng.NormFloat64()*0.8)
		}
		return xs, ys
	}
	trainX, trainY := gen(300)
	testX, testY := gen(100)
	tree := TreeFit(trainX, trainY, TreeConfig{})
	forest := ForestFit(trainX, trainY, ForestConfig{Trees: 40}, rng)
	mse := func(pred func([]float64) float64) float64 {
		s := 0.0
		for i, q := range testX {
			d := pred(q) - testY[i]
			s += d * d
		}
		return s / float64(len(testX))
	}
	if mse(forest.Predict) >= mse(tree.Predict) {
		t.Errorf("forest MSE %v >= tree MSE %v", mse(forest.Predict), mse(tree.Predict))
	}
	if forest.Size() != 40 {
		t.Errorf("forest size %d", forest.Size())
	}
}

func TestForestEmpty(t *testing.T) {
	f := ForestFit(nil, nil, ForestConfig{}, rand.New(rand.NewSource(1)))
	if f.Predict([]float64{1}) != 0 {
		t.Error("empty forest must predict 0")
	}
}

// --- Bayesian ridge -----------------------------------------------------------

func TestBayesianRidgeRecoversWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 300; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		xs = append(xs, []float64{a, b})
		ys = append(ys, 2*a-3*b+0.5+rng.NormFloat64()*0.1)
	}
	m := BayesianRidgeFit(xs, ys, 0)
	if math.Abs(m.Weights[0]-2) > 0.1 || math.Abs(m.Weights[1]+3) > 0.1 {
		t.Errorf("weights = %v, want ~[2 -3 0.5]", m.Weights)
	}
	if math.Abs(m.Weights[2]-0.5) > 0.1 {
		t.Errorf("intercept = %v", m.Weights[2])
	}
	if m.Predict([]float64{1, 1}) == 0 {
		t.Error("prediction is zero")
	}
	// Noise precision should be around 1/0.01 = 100.
	if m.Alpha < 20 || m.Alpha > 500 {
		t.Errorf("alpha = %v, want O(100)", m.Alpha)
	}
}

func TestBayesianRidgeShrinksOnPureNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		xs = append(xs, []float64{rng.NormFloat64()})
		ys = append(ys, rng.NormFloat64())
	}
	m := BayesianRidgeFit(xs, ys, 0)
	if math.Abs(m.Weights[0]) > 0.2 {
		t.Errorf("weight on noise feature = %v, want ~0", m.Weights[0])
	}
}

// TestBayesianRidgeSolvesNormalEquations holds the returned weights to the
// hyperparameters returned with them: (αXᵀX + λI)w = αXᵀy, X with the
// intercept column, to 1e-9 of each row's magnitude — whether the evidence
// iteration converged or ran out of updates, on well-posed and collinear
// designs.
func TestBayesianRidgeSolvesNormalEquations(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, p := 5+rng.Intn(60), 1+rng.Intn(4)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, p)
			for j := range xs[i] {
				xs[i][j] = rng.NormFloat64()
			}
			if seed%3 == 0 {
				xs[i][p-1] = xs[i][0] // collinear: XᵀX is singular
			}
			ys[i] = 2*xs[i][0] - 1 + rng.NormFloat64()
		}
		for _, maxIter := range []int{1, 2, 3, 0} {
			m := BayesianRidgeFit(xs, ys, maxIter)
			w := m.Weights
			if len(w) != p+1 {
				t.Fatalf("seed %d, maxIter %d: %d weights, want %d", seed, maxIter, len(w), p+1)
			}
			row := func(i int) []float64 { return append(append([]float64(nil), xs[i]...), 1) }
			for r := 0; r <= p; r++ {
				lhs, scale := m.Lambda*w[r], math.Abs(m.Lambda*w[r])
				rhs := 0.0
				for i := range xs {
					xi := row(i)
					for c := 0; c <= p; c++ {
						v := m.Alpha * xi[r] * xi[c] * w[c]
						lhs += v
						scale += math.Abs(v)
					}
					rhs += m.Alpha * xi[r] * ys[i]
				}
				scale += math.Abs(rhs)
				if math.Abs(lhs-rhs) > 1e-9*scale {
					t.Errorf("seed %d, maxIter %d, row %d: (αXᵀX+λI)w = %v, αXᵀy = %v at α = %v, λ = %v",
						seed, maxIter, r, lhs, rhs, m.Alpha, m.Lambda)
				}
			}
		}
	}
}

func TestBayesianRidgeEmpty(t *testing.T) {
	m := BayesianRidgeFit(nil, nil, 0)
	if m.Predict([]float64{1}) != 0 {
		t.Error("empty model must predict 0")
	}
}

// --- Tobit --------------------------------------------------------------------

func TestTobitCorrectsCensorBias(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var xs [][]float64
	var ys []float64
	var cens []bool
	var xsOLS [][]float64
	var ysOLS []float64
	// True model: y* = 4x + noise; censored at 3 (many high values cut).
	for i := 0; i < 400; i++ {
		x := rng.Float64()
		yStar := 4*x + rng.NormFloat64()*0.3
		y := yStar
		c := false
		if y > 3 {
			y = 3
			c = true
		}
		xs = append(xs, []float64{x})
		ys = append(ys, y)
		cens = append(cens, c)
		xsOLS = append(xsOLS, []float64{x})
		ysOLS = append(ysOLS, y)
	}
	tob := TobitFit(xs, ys, cens, TobitConfig{})
	ols := BayesianRidgeFit(xsOLS, ysOLS, 0) // naive fit on censored data
	// At x = 0.9 the true mean is 3.6, beyond the censor point. Tobit must
	// get closer than the naive fit.
	truth := 4 * 0.9
	tErr := math.Abs(tob.Predict([]float64{0.9}) - truth)
	oErr := math.Abs(ols.Predict([]float64{0.9}) - truth)
	if tErr >= oErr {
		t.Errorf("Tobit error %v >= naive error %v", tErr, oErr)
	}
	if tErr > 0.5 {
		t.Errorf("Tobit prediction error %v too large", tErr)
	}
}

// TestTobitUncensoredSolvesNormalEquations: with no censored rows the
// Tobit likelihood in β is the least-squares objective, so the fit must
// land on the OLS solution. Every fitted value is held to 1e-6 of the fit
// mlkit.Solve returns for the normal equations XᵀXβ = Xᵀy (X with the
// intercept column), at pairwise feature correlation 0, 0.5 and 0.9 and
// noise 0.1, 0.3 and 1.0. Two designs are rank-deficient, as a TRIP window
// whose hashed name or user column is constant or repeats another column:
// there OLS runs on the independent columns, since the fitted values do not
// depend on how the fit splits weight between equal columns.
func TestTobitUncensoredSolvesNormalEquations(t *testing.T) {
	const n, p = 400, 5
	type design struct {
		name string
		rho  float64
		// tie, if set, overwrites feature 4 of each row; keep lists the
		// features OLS uses.
		tie  func(row []float64) float64
		keep []int
	}
	all := []int{0, 1, 2, 3, 4}
	designs := []design{
		{name: "rho 0", rho: 0, keep: all},
		{name: "rho 0.5", rho: 0.5, keep: all},
		{name: "rho 0.9", rho: 0.9, keep: all},
		{name: "constant column", rho: 0.5, tie: func([]float64) float64 { return -1 }, keep: []int{0, 1, 2, 3}},
		{name: "duplicated column", rho: 0.5, tie: func(row []float64) float64 { return row[2] }, keep: []int{0, 1, 2, 3}},
	}
	for _, d := range designs {
		for _, noise := range []float64{0.1, 0.3, 1.0} {
			rng := rand.New(rand.NewSource(14))
			xs := make([][]float64, n)
			ys := make([]float64, n)
			cens := make([]bool, n)
			for i := range xs {
				// x_j = √ρ·z₀ + √(1−ρ)·z_j gives every feature pair correlation ρ.
				z0 := rng.NormFloat64()
				xs[i] = make([]float64, p)
				for j := range xs[i] {
					xs[i][j] = math.Sqrt(d.rho)*z0 + math.Sqrt(1-d.rho)*rng.NormFloat64()
				}
				if d.tie != nil {
					xs[i][4] = d.tie(xs[i])
				}
				ys[i] = 1 + 2*xs[i][0] - xs[i][1] + 0.5*xs[i][3] + noise*rng.NormFloat64()
			}

			k := len(d.keep) + 1
			ata := NewMatrix(k, k)
			aty := make([]float64, k)
			row := func(i int) []float64 {
				r := make([]float64, 0, k)
				for _, j := range d.keep {
					r = append(r, xs[i][j])
				}
				return append(r, 1)
			}
			for i := range xs {
				xi := row(i)
				for r := range xi {
					for c := range xi {
						ata.Data[r*k+c] += xi[r] * xi[c]
					}
					aty[r] += xi[r] * ys[i]
				}
			}
			beta, err := Solve(ata, aty)
			if err != nil {
				t.Fatalf("%s, noise %v: normal equations: %v", d.name, noise, err)
			}

			m := TobitFit(xs, ys, cens, TobitConfig{})
			worst := 0.0
			for i := range xs {
				ols := 0.0
				for j, v := range row(i) {
					ols += beta[j] * v
				}
				worst = max(worst, math.Abs(m.Predict(xs[i])-ols))
			}
			t.Logf("%s, noise %v: %d Newton steps, worst |Tobit - OLS| = %.2g", d.name, noise, m.Iterations(), worst)
			if worst > 1e-6 {
				t.Errorf("%s, noise %v: a fitted value is %.2g from the OLS fit after %d steps, want <= 1e-6", d.name, noise, worst, m.Iterations())
			}

		}
	}
}

// olsenLogLik is the right-censored Tobit log-likelihood, less its
// constant, in Olsen's parametrization par = (γ with the intercept last,
// θ), written out for the test from the textbook density: an uncensored y
// adds log θ − (θy − x·γ)²/2, one censored at y adds log(1 − Φ(θy − x·γ)).
// score returns its gradient.
func olsenLogLik(xs [][]float64, ys []float64, cens []bool, par []float64) (ll float64, score []float64) {
	p := len(par) - 1
	theta := par[p]
	score = make([]float64, len(par))
	for i, x := range xs {
		z := theta*ys[i] - par[p-1]
		for j, v := range x {
			z -= par[j] * v
		}
		// dℓᵢ/dz, and ∂z/∂γ = −(x, 1), ∂z/∂θ = y.
		var dz float64
		if cens[i] {
			surv := 0.5 * math.Erfc(z/math.Sqrt2)
			ll += math.Log(surv)
			dz = -math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) / surv
		} else {
			ll += math.Log(theta) - z*z/2
			dz = -z
			score[p] += 1 / theta
		}
		for j, v := range x {
			score[j] -= dz * v
		}
		score[p-1] -= dz
		score[p] += dz * ys[i]
	}
	return ll, score
}

// TestTobitCensoredFitIsTheMaximum holds a censored fit to the first- and
// second-order conditions of its optimum, in the standardized space the fit
// runs in: every component of the score is at most 1e-6·n, and moving any
// one parameter by ±h does not raise the log-likelihood. Feature 3 is
// feature 0 plus log2 24, as log cores is log nodes at 24 cores a node:
// the two standardize to the same column up to rounding, and the fit must
// split their weight evenly rather than along the rounding.
func TestTobitCensoredFitIsTheMaximum(t *testing.T) {
	const n = 700
	for _, seed := range []int64{21, 22, 23} {
		rng := rand.New(rand.NewSource(seed))
		xs := make([][]float64, n)
		ys := make([]float64, n)
		cens := make([]bool, n)
		censored := 0
		for i := range xs {
			x0 := rng.NormFloat64()
			xs[i] = []float64{x0, rng.NormFloat64(), rng.Float64(), x0 + math.Log2(24)}
			ys[i] = 1 + 2*xs[i][0] - xs[i][1] + 0.5*rng.NormFloat64()
			if limit := 2.0; ys[i] >= limit {
				ys[i], cens[i] = limit, true
				censored++
			}
		}
		m := TobitFit(xs, ys, cens, TobitConfig{})

		sx := m.xs.TransformAll(xs)
		sy := make([]float64, n)
		for i, v := range ys {
			sy[i] = (v - m.yMean) / m.yStd
		}
		theta := 1 / m.Sigma
		par := make([]float64, len(m.Weights)+1)
		for j, w := range m.Weights {
			par[j] = w * theta
		}
		par[len(par)-1] = theta

		ll, score := olsenLogLik(sx, sy, cens, par)
		for j, g := range score {
			if math.Abs(g) > 1e-6*n {
				t.Errorf("seed %d: score component %d is %.3g, want |·| <= %g", seed, j, g, 1e-6*n)
			}
		}
		const h = 1e-3
		for j := range par {
			for _, dir := range []float64{-h, h} {
				moved := append([]float64(nil), par...)
				moved[j] += dir
				if l, _ := olsenLogLik(sx, sy, cens, moved); l > ll {
					t.Errorf("seed %d: moving parameter %d by %+g raises ℓ from %.12g to %.12g", seed, j, dir, ll, l)
				}
			}
		}
		t.Logf("seed %d: %d of %d censored, %d Newton steps, ℓ = %.6f", seed, censored, n, m.Iterations(), ll)
		if w0, w3 := m.Weights[0], m.Weights[3]; math.Abs(w0-w3) > 1e-3 {
			t.Errorf("seed %d: features 0 and 3 are one column, weighted %.6g and %.6g", seed, w0, w3)
		}
		if m.Iterations() >= 400 {
			t.Errorf("seed %d: the fit ran to its step cap", seed)
		}
	}
}

// TestLogNormCDFMatchesErfcReference holds log Φ(a) and λ = φ(a)/Φ(a) to
// the values 0.5·erfc(−a/√2) gives, across the erf branch, the
// continued-fraction branch and the switch between them, down to where
// Φ(a) nears the smallest normal float64.
func TestLogNormCDFMatchesErfcReference(t *testing.T) {
	for a := -37.0; a <= 8; a += 0.01 {
		p := 0.5 * math.Erfc(-a/math.Sqrt2)
		wantLog := math.Log(p)
		wantLambda := math.Exp(-a*a/2) / math.Sqrt(2*math.Pi) / p
		gotLog, gotLambda := logNormCDF(a)
		if e := math.Abs(gotLog-wantLog) / max(1, math.Abs(wantLog)); e > 1e-11 {
			t.Errorf("a = %.2f: log Φ = %.17g, erfc gives %.17g (rel. error %.2g)", a, gotLog, wantLog, e)
		}
		if e := math.Abs(gotLambda-wantLambda) / wantLambda; e > 1e-11 {
			t.Errorf("a = %.2f: λ = %.17g, erfc gives %.17g (rel. error %.2g)", a, gotLambda, wantLambda, e)
		}
	}
}

func TestTobitEmpty(t *testing.T) {
	m := TobitFit(nil, nil, nil, TobitConfig{})
	if m.Predict([]float64{1}) != 0 {
		t.Error("empty Tobit must predict 0")
	}
}

// --- Benchmarks ----------------------------------------------------------------

func BenchmarkKMeans700Jobs(b *testing.B) {
	// The estimation framework clusters a 700-job interest window into
	// K=15 clusters; this is the recurring training cost.
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, 700)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeansFit(xs, 15, 50, rng)
	}
}

func BenchmarkSVRFitCluster(b *testing.B) {
	// ~47 jobs per cluster (700/15) with 5 features.
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, 47)
	ys := make([]float64, 47)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = rng.Float64() * 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SVRFit(xs, ys, SVRConfig{})
	}
}
