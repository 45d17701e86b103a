package mlkit

import (
	"math"
	"math/rand"
	"sort"
)

// TreeConfig parameterizes CART regression-tree induction.
type TreeConfig struct {
	// MaxDepth limits the tree height. Zero defaults to 12.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples per leaf. Zero defaults to 2.
	MinSamplesLeaf int
	// FeatureSubset, when > 0, evaluates only this many randomly chosen
	// features per split (the random-forest decorrelation trick). Requires
	// Rng. Zero evaluates all features.
	FeatureSubset int
	// Rng drives feature subsampling; required when FeatureSubset > 0.
	Rng *rand.Rand
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth == 0 {
		c.MaxDepth = 12
	}
	if c.MinSamplesLeaf == 0 {
		c.MinSamplesLeaf = 2
	}
	return c
}

type treeNode struct {
	feature int
	thresh  float64
	left    *treeNode
	right   *treeNode
	value   float64 // leaf prediction
	leaf    bool
}

// RegressionTree is a fitted CART tree minimizing within-node variance.
type RegressionTree struct {
	root  *treeNode
	depth int
	nodes int
}

// TreeFit builds a regression tree on row-major samples x with targets y.
func TreeFit(x [][]float64, y []float64, cfg TreeConfig) *RegressionTree {
	cfg = cfg.withDefaults()
	t := &RegressionTree{}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(x, y, idx, 0, cfg)
	return t
}

func (t *RegressionTree) build(x [][]float64, y []float64, idx []int, depth int, cfg TreeConfig) *treeNode {
	t.nodes++
	if depth > t.depth {
		t.depth = depth
	}
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
	// vals is the feature's column over this node in idx order, sorted the
	// same values in ascending order; both are reused across features.
	vals := make([]float64, len(idx))
	sorted := make([]float64, len(idx))
	for _, feat := range features {
		for i, j := range idx {
			vals[i] = x[j][feat]
		}
		copy(sorted, vals)
		sort.Float64s(sorted)
		// Candidate thresholds: midpoints of consecutive distinct values.
		for k := 0; k+1 < len(sorted); k++ {
			if sorted[k] == sorted[k+1] {
				continue
			}
			thresh := (sorted[k] + sorted[k+1]) / 2
			// Weighted variance of the two sides, read from the node's own
			// contiguous copies (vals, sub) in idx order.
			var ln, rn int
			var lsum, lsq, rsum, rsq float64
			for i, v := range sub {
				if vals[i] <= thresh {
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
			lvar := lsq - lsum*lsum/float64(ln)
			rvar := rsq - rsum*rsum/float64(rn)
			score := lvar + rvar
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
		left:    t.build(x, y, li, depth+1, cfg),
		right:   t.build(x, y, ri, depth+1, cfg),
	}
}

// Predict evaluates the tree at q.
func (t *RegressionTree) Predict(q []float64) float64 {
	n := t.root
	for !n.leaf {
		if q[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Depth returns the fitted tree's height.
func (t *RegressionTree) Depth() int { return t.depth }

// Nodes returns the total node count.
func (t *RegressionTree) Nodes() int { return t.nodes }

// ForestConfig parameterizes random-forest regression.
type ForestConfig struct {
	// Trees is the ensemble size. Zero defaults to 50.
	Trees int
}

// Forest is a fitted random-forest regressor, used both as a Fig. 11b
// baseline and inside the IRPA ensemble.
type Forest struct {
	trees []*RegressionTree
}

// ForestFit trains a bagged ensemble of decorrelated regression trees.
func ForestFit(x [][]float64, y []float64, cfg ForestConfig, rng *rand.Rand) *Forest {
	if cfg.Trees == 0 {
		cfg.Trees = 50
	}
	n := len(x)
	f := &Forest{}
	if n == 0 {
		return f
	}
	p := len(x[0])
	// Each member tries ⌈√p⌉ features per split, at TreeConfig's defaults.
	tc := TreeConfig{FeatureSubset: int(math.Ceil(math.Sqrt(float64(p))))}
	for t := 0; t < cfg.Trees; t++ {
		// Bootstrap sample.
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = x[j]
			by[i] = y[j]
		}
		tcc := tc
		tcc.Rng = rng
		f.trees = append(f.trees, TreeFit(bx, by, tcc))
	}
	return f
}

// Predict averages the ensemble at q.
func (f *Forest) Predict(q []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range f.trees {
		s += t.Predict(q)
	}
	return s / float64(len(f.trees))
}

// Size returns the number of trees in the ensemble.
func (f *Forest) Size() int { return len(f.trees) }
