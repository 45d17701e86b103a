package mlkit

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// buildIndexed is the reference CART induction: every candidate threshold is
// scored by chasing x[j][feat] and y[j] through idx, as build did before it
// read the node's gathered copies.
func buildIndexed(x [][]float64, y []float64, idx []int, depth int, cfg TreeConfig) *treeNode {
	sub := make([]float64, len(idx))
	for i, j := range idx {
		sub[i] = y[j]
	}
	mean := Mean(sub)
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinSamplesLeaf || Variance(sub) < 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}
	p := len(x[0])
	features := make([]int, p)
	for i := range features {
		features[i] = i
	}
	if cfg.FeatureSubset > 0 && cfg.FeatureSubset < p && cfg.Rng != nil {
		cfg.Rng.Shuffle(p, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.FeatureSubset]
	}
	bestFeat, bestThresh, bestScore := -1, 0.0, math.Inf(1)
	for _, feat := range features {
		sorted := make([]float64, 0, len(idx))
		for _, j := range idx {
			sorted = append(sorted, x[j][feat])
		}
		sort.Float64s(sorted)
		for k := 0; k+1 < len(sorted); k++ {
			if sorted[k] == sorted[k+1] {
				continue
			}
			thresh := (sorted[k] + sorted[k+1]) / 2
			var ln, rn int
			var lsum, lsq, rsum, rsq float64
			for _, j := range idx {
				v := y[j]
				if x[j][feat] <= thresh {
					ln++
					lsum += v
					lsq += v * v
				} else {
					rn++
					rsum += v
					rsq += v * v
				}
			}
			if ln < cfg.MinSamplesLeaf || rn < cfg.MinSamplesLeaf {
				continue
			}
			score := (lsq - lsum*lsum/float64(ln)) + (rsq - rsum*rsum/float64(rn))
			if score < bestScore {
				bestFeat, bestThresh, bestScore = feat, thresh, score
			}
		}
	}
	if bestFeat < 0 {
		return &treeNode{leaf: true, value: mean}
	}
	var li, ri []int
	for _, j := range idx {
		if x[j][bestFeat] <= bestThresh {
			li = append(li, j)
		} else {
			ri = append(ri, j)
		}
	}
	return &treeNode{
		feature: bestFeat,
		thresh:  bestThresh,
		left:    buildIndexed(x, y, li, depth+1, cfg),
		right:   buildIndexed(x, y, ri, depth+1, cfg),
	}
}

// requireSameTree walks two trees together and compares every node on
// (leaf, feature, thresh, value) with ==. It returns the node count.
func requireSameTree(t *testing.T, what, path string, got, want *treeNode) int {
	t.Helper()
	if got.leaf != want.leaf || got.feature != want.feature || got.thresh != want.thresh || got.value != want.value {
		t.Fatalf("%s: node %q = (leaf %v, feature %d, thresh %v, value %v), reference (%v, %d, %v, %v)", what, path,
			got.leaf, got.feature, got.thresh, got.value, want.leaf, want.feature, want.thresh, want.value)
	}
	if want.leaf {
		return 1
	}
	return 1 + requireSameTree(t, what, path+"L", got.left, want.left) + requireSameTree(t, what, path+"R", got.right, want.right)
}

// oracleInput draws the inputs both CART oracles run on: duplicatedRows at
// 0, 50 or 90% duplication, widened by the columns where the swept scores
// and the per-candidate loop could part ways — a ±0 column, a constant, one
// distinct value per row, adjacent floats (so a midpoint can round onto the
// upper value), two copies of column 0 and its negation (partitions that tie
// exactly), and one holding NaN and ±Inf among finite values. Every fifth
// seed's targets sit at 1e6 + N(0,1), where δ is widest.
func oracleInput(seed int64, rng *rand.Rand) ([][]float64, []float64) {
	base := duplicatedRows(rng, 20+rng.Intn(150), 2+rng.Intn(5), []float64{0, 0.5, 0.9}[seed%3])
	xs := make([][]float64, len(base))
	ys := make([]float64, len(base))
	for i, b := range base {
		zero := 0.0
		switch {
		case b[1] > 1:
			zero = 1
		case b[1] < 0:
			zero = math.Copysign(0, -1)
		}
		adjacent := 1.0
		for k := int(math.Abs(b[0])*4) % 8; k > 0; k-- {
			adjacent = math.Nextafter(adjacent, 2)
		}
		odd := b[1]
		switch {
		case b[0] < -1:
			odd = math.NaN()
		case b[0] > 1.5:
			odd = math.Inf(1)
		case b[0] < -0.5:
			odd = math.Inf(-1)
		}
		xs[i] = append(append([]float64(nil), b...), zero, 3.5, 0.37*float64(i), adjacent, b[0], b[0], -b[0], odd)
		if seed%5 == 0 {
			ys[i] = 1e6 + rng.NormFloat64()
		} else {
			ys[i] = math.Floor(2*b[0]) + b[1]*b[1] + 0.1*rng.NormFloat64()
		}
	}
	return xs, ys
}

// TestTreeFitMatchesIndexedReference pins the swept split search to the
// indexed per-candidate loop node by node: every split and every leaf value
// is equal, on bootstrap-like inputs (rows repeated, as ForestFit feeds it)
// with and without per-split feature subsampling.
func TestTreeFitMatchesIndexedReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs, ys := oracleInput(seed, rng)
		cfg := TreeConfig{MaxDepth: 3 + int(seed%8), MinSamplesLeaf: 1 + int(seed%3)}
		if seed%2 == 0 {
			cfg.FeatureSubset = 1 + int(seed)%len(xs[0])
		}
		what := fmt.Sprintf("seed %d (n=%d p=%d subset=%d)", seed, len(xs), len(xs[0]), cfg.FeatureSubset)

		got, want := cfg, cfg
		got.Rng, want.Rng = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		tree := TreeFit(xs, ys, got)
		idx := make([]int, len(xs))
		for i := range idx {
			idx[i] = i
		}
		ref := buildIndexed(xs, ys, idx, 0, want.withDefaults())
		if nodes := requireSameTree(t, what, "", tree.root, ref); nodes != tree.Nodes() {
			t.Errorf("%s: walked %d nodes, tree reports %d", what, nodes, tree.Nodes())
		}
		if got.Rng.Int63() != want.Rng.Int63() {
			t.Errorf("%s: feature subsampling drew a different number of values", what)
		}
	}
}

// forestFitReference is the copying forest: each tree gets its own bootstrap
// copies of the rows and targets and grows by the indexed per-candidate
// loop, drawing from rng in ForestFit's order. It returns the roots.
func forestFitReference(x [][]float64, y []float64, cfg ForestConfig, rng *rand.Rand) []*treeNode {
	n := len(x)
	p := len(x[0])
	tc := TreeConfig{FeatureSubset: int(math.Ceil(math.Sqrt(float64(p))))}
	var roots []*treeNode
	for t := 0; t < cfg.Trees; t++ {
		bx := make([][]float64, n)
		by := make([]float64, n)
		idx := make([]int, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = x[j]
			by[i] = y[j]
			idx[i] = i
		}
		tcc := tc
		tcc.Rng = rng
		roots = append(roots, buildIndexed(bx, by, idx, 0, tcc.withDefaults()))
	}
	return roots
}

// TestForestFitMatchesBootstrapReference holds ForestFit — one feature
// coding shared by every tree, bootstraps as index lists — to the forest
// that copied its bootstrap rows: every tree equal node by node, and the
// same number of values drawn from rng.
func TestForestFitMatchesBootstrapReference(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		xs, ys := oracleInput(seed, rand.New(rand.NewSource(seed)))
		cfg := ForestConfig{Trees: 1 + int(seed%5)}
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		f := ForestFit(xs, ys, cfg, got)
		ref := forestFitReference(xs, ys, cfg, want)
		if f.Size() != len(ref) {
			t.Fatalf("seed %d: %d trees, reference %d", seed, f.Size(), len(ref))
		}
		for k, tree := range f.trees {
			what := fmt.Sprintf("seed %d tree %d (n=%d p=%d)", seed, k, len(xs), len(xs[0]))
			if nodes := requireSameTree(t, what, "", tree.root, ref[k]); nodes != tree.Nodes() {
				t.Errorf("%s: walked %d nodes, tree reports %d", what, nodes, tree.Nodes())
			}
		}
		if got.Int63() != want.Int63() {
			t.Errorf("seed %d: the forest drew a different number of values", seed)
		}
	}
}

// TestTreeSplitBruteForce checks the root split against the definition on
// tiny inputs (n ≤ 10, p ≤ 3, small-integer features and targets): of all
// (feature, midpoint) pairs whose sides both hold MinSamplesLeaf samples,
// the first in (feature, threshold) order with the least SSE_L + SSE_R,
// each SSE the exact Σ(v − mean)².
func TestTreeSplitBruteForce(t *testing.T) {
	sse := func(vs []float64) *big.Rat {
		mean := new(big.Rat)
		for _, v := range vs {
			mean.Add(mean, new(big.Rat).SetFloat64(v))
		}
		mean.Quo(mean, new(big.Rat).SetInt64(int64(len(vs))))
		s := new(big.Rat)
		for _, v := range vs {
			d := new(big.Rat).Sub(new(big.Rat).SetFloat64(v), mean)
			s.Add(s, d.Mul(d, d))
		}
		return s
	}
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, p, minLeaf := 2+rng.Intn(9), 1+rng.Intn(3), 1+rng.Intn(3)
		xs, ys := make([][]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, p)
			for f := range xs[i] {
				xs[i][f] = float64(rng.Intn(5))
			}
			ys[i] = float64(rng.Intn(6))
		}

		wantFeat, wantThresh := -1, 0.0
		var wantScore *big.Rat
		for f := 0; f < p; f++ {
			var col []float64
			for _, x := range xs {
				col = append(col, x[f])
			}
			sort.Float64s(col)
			for k := 0; k+1 < n; k++ {
				if col[k] == col[k+1] {
					continue
				}
				mid := (col[k] + col[k+1]) / 2
				var l, r []float64
				for i, x := range xs {
					if x[f] <= mid {
						l = append(l, ys[i])
					} else {
						r = append(r, ys[i])
					}
				}
				if len(l) < minLeaf || len(r) < minLeaf {
					continue
				}
				if s := new(big.Rat).Add(sse(l), sse(r)); wantScore == nil || s.Cmp(wantScore) < 0 {
					wantFeat, wantThresh, wantScore = f, mid, s
				}
			}
		}
		if Variance(ys) == 0 {
			wantFeat = -1 // a constant node is a leaf before any split is scored
		}

		root := TreeFit(xs, ys, TreeConfig{MaxDepth: 1, MinSamplesLeaf: minLeaf}).root
		switch {
		case wantFeat < 0 && !root.leaf:
			t.Errorf("seed %d (n=%d p=%d leaf=%d): split on x%d <= %v, want a leaf", seed, n, p, minLeaf, root.feature, root.thresh)
		case wantFeat >= 0 && (root.leaf || root.feature != wantFeat || root.thresh != wantThresh):
			t.Errorf("seed %d (n=%d p=%d leaf=%d): root (leaf %v, x%d <= %v), want x%d <= %v (SSE %v)",
				seed, n, p, minLeaf, root.leaf, root.feature, root.thresh, wantFeat, wantThresh, wantScore.FloatString(4))
		}
	}
}

// windowLike draws a training window shaped like the Fig. 11b baselines':
// 12 ±1 columns hashing a handful of (user, application) pairs, two
// small-integer columns, an hour of day, and log-runtime targets.
func windowLike(rng *rand.Rand, n int) ([][]float64, []float64) {
	hashes := make([][]float64, 8)
	for k := range hashes {
		hashes[k] = make([]float64, 12)
		for d := range hashes[k] {
			hashes[k][d] = float64(2*rng.Intn(2) - 1)
		}
	}
	xs, ys := make([][]float64, n), make([]float64, n)
	for i := range xs {
		k := rng.Intn(len(hashes))
		size, limit, hour := float64(rng.Intn(7)), float64(rng.Intn(5)), float64(rng.Intn(24))
		xs[i] = append(append([]float64(nil), hashes[k]...), size, limit, hour)
		ys[i] = 3 + 0.5*float64(k%4) + 0.3*size + 0.4*limit + 0.3*rng.NormFloat64()
	}
	return xs, ys
}

// TestAllocsForestFit is the forest's work and allocation budget on a
// Fig. 11b-sized fit (30 trees, 700×15): one allocation per tree node plus
// at most 16 per tree for everything else, and at most 1.5 candidates per
// split scored by the exact loop — the count that grows if δ stops ruling
// candidates out.
func TestAllocsForestFit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const trees = 30
	xs, ys := windowLike(rand.New(rand.NewSource(1)), 700)
	var f *Forest
	mallocs := testing.AllocsPerRun(3, func() {
		f = ForestFit(xs, ys, ForestConfig{Trees: trees}, rand.New(rand.NewSource(7)))
	})
	nodes, splits, rescored := 0, 0, 0
	for _, tree := range f.trees {
		nodes += tree.Nodes()
		splits += splitNodes(tree.root)
		rescored += tree.rescored
	}
	t.Logf("%d trees, %d nodes (%d splits): %.0f mallocs, %d exact re-scores", trees, nodes, splits, mallocs, rescored)
	if budget := float64(nodes + 16*trees); mallocs > budget {
		t.Errorf("ForestFit made %.0f allocations, budget %.0f (nodes + 16 per tree)", mallocs, budget)
	}
	if perSplit := float64(rescored) / float64(splits); perSplit > 1.5 {
		t.Errorf("exact loop scored %.2f candidates per split, budget 1.5", perSplit)
	}
}

func splitNodes(n *treeNode) int {
	if n.leaf {
		return 0
	}
	return 1 + splitNodes(n.left) + splitNodes(n.right)
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
