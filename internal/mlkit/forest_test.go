package mlkit

import (
	"fmt"
	"math"
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

// TestTreeFitMatchesIndexedReference pins build's contiguous threshold scan
// to the indexed one node by node: same comparisons and same additions in the
// same order, so every split and every leaf value is equal, on bootstrap-like
// inputs (rows repeated, as ForestFit feeds it) with and without per-split
// feature subsampling.
func TestTreeFitMatchesIndexedReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs := duplicatedRows(rng, 20+rng.Intn(150), 2+rng.Intn(5), []float64{0, 0.5, 0.9}[seed%3])
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = math.Floor(2*x[0]) + x[1]*x[1] + 0.1*rng.NormFloat64()
		}
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
