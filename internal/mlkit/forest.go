package mlkit

import (
	"math"
	"math/bits"
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
	// rescored counts the candidate splits the exact loop scored (see
	// splitter.split): the work the swept scores could not rule out.
	rescored int
}

// TreeFit builds a regression tree on row-major samples x with targets y.
func TreeFit(x [][]float64, y []float64, cfg TreeConfig) *RegressionTree {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	return newSplitter(x, y).fit(idx, cfg.withDefaults())
}

// splitter is one fit's view of its training rows: every feature coded once,
// and the scratch that every node of every tree reuses. A tree is grown over
// an index list into those rows (a bootstrap only re-indexes them), visited
// in list order, so a node sees its samples in the order the list gives.
type splitter struct {
	x [][]float64
	y []float64
	// levels[f] holds column f's distinct values ascending, with one NaN
	// level last if the column has any; codes[f][r] is the level of x[r][f].
	levels [][]float64
	codes  [][]int32

	ys, sq, vals []float64 // a node's targets, their squares, one gathered column
	feats        []int
	bins         []bin    // per level of the feature being swept
	seen         []uint64 // bitmap of the levels present in the node
	cands        []candidate
	spill        []int // right-hand rows during the stable partition
}

// bin accumulates one level's samples in a node: count, Σv and Σv².
type bin struct {
	n    int
	s, q float64
}

// candidate is a threshold the sweep could not rule out. score is its swept
// score, or NaN when only the exact loop can score it.
type candidate struct {
	feat          int
	thresh, score float64
}

func newSplitter(x [][]float64, y []float64) *splitter {
	n, p := len(x), 0
	if n > 0 {
		p = len(x[0])
	}
	s := &splitter{
		x: x, y: y,
		levels: make([][]float64, p),
		codes:  make([][]int32, p),
		ys:     make([]float64, n),
		sq:     make([]float64, n),
		vals:   make([]float64, n),
		feats:  make([]int, p),
		spill:  make([]int, 0, n),
	}
	sorted := make([]float64, p*n)
	codes := make([]int32, p*n)
	maxLevels := 0
	for f := 0; f < p; f++ {
		col := sorted[f*n : (f+1)*n : (f+1)*n]
		for r, row := range x {
			col[r] = row[f]
		}
		sort.Float64s(col) // NaNs first
		nan := 0
		for nan < n && col[nan] != col[nan] {
			nan++
		}
		l := 0
		for _, v := range col[nan:] {
			if l == 0 || v != col[l-1] {
				col[l] = v
				l++
			}
		}
		ordered := col[:l]
		if nan > 0 {
			col[l] = math.NaN()
			l++
		}
		s.levels[f] = col[:l]
		code := codes[f*n : (f+1)*n : (f+1)*n]
		for r, row := range x {
			if v := row[f]; v == v {
				code[r] = int32(sort.SearchFloat64s(ordered, v))
			} else {
				code[r] = int32(l - 1)
			}
		}
		s.codes[f] = code
		maxLevels = max(maxLevels, l)
	}
	s.bins = make([]bin, maxLevels)
	s.seen = make([]uint64, (maxLevels+63)/64)
	return s
}

// fit grows one tree over the rows idx lists; it reorders idx.
func (s *splitter) fit(idx []int, cfg TreeConfig) *RegressionTree {
	t := &RegressionTree{}
	t.root = s.build(t, idx, 0, cfg)
	return t
}

func (s *splitter) build(t *RegressionTree, idx []int, depth int, cfg TreeConfig) *treeNode {
	t.nodes++
	if depth > t.depth {
		t.depth = depth
	}
	ys := s.ys[:len(idx)]
	for i, j := range idx {
		ys[i] = s.y[j]
	}
	mean := Mean(ys)
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinSamplesLeaf || Variance(ys) < 1e-12 {
		return &treeNode{leaf: true, value: mean}
	}
	feat, thresh, ok := s.split(t, idx, cfg)
	if !ok {
		return &treeNode{leaf: true, value: mean}
	}
	nl := s.partition(idx, feat, thresh)
	return &treeNode{
		feature: feat,
		thresh:  thresh,
		left:    s.build(t, idx[:nl], depth+1, cfg),
		right:   s.build(t, idx[nl:], depth+1, cfg),
	}
}

// split returns the split the per-candidate loop picks: over the sampled
// features in order and each feature's midpoints between consecutive
// distinct values in ascending order, the first of the least
//
//	score = (Σ_L v² − (Σ_L v)²/n_L) + (Σ_R v² − (Σ_R v)²/n_R)
//
// with the sums run in sample order. One pass per feature bins the node's
// samples by level; a walk over the present levels scores every midpoint
// from prefix sums. Both scores are within δ of the real-valued one, so only
// candidates within 2δ of the best swept score can be the loop's pick, and
// only those are scored again by the loop itself (DESIGN.md §6, "CART
// splits in one sweep", derives δ).
func (s *splitter) split(t *RegressionTree, idx []int, cfg TreeConfig) (int, float64, bool) {
	n := len(idx)
	ys, sq := s.ys[:n], s.sq[:n]
	var total, sumSq, sumAbs, maxAbs float64
	for i, v := range ys {
		sq[i] = v * v
		total += v
		sumSq += sq[i]
		a := math.Abs(v)
		sumAbs += a
		maxAbs = max(maxAbs, a)
	}
	// δ bounds |swept − real| + |exact − real| with a factor-2 margin while
	// nothing overflows and n²u ≪ 1; otherwise the exact loop scores all.
	delta := 16 * float64(n+2) * 0x1p-53 * (sumSq + maxAbs*sumAbs)
	if !(sumAbs*sumAbs <= math.MaxFloat64/4) || n > 1<<24 {
		delta = math.Inf(1)
	}

	feats := s.feats
	for i := range feats {
		feats[i] = i
	}
	if p := len(feats); cfg.FeatureSubset > 0 && cfg.FeatureSubset < p && cfg.Rng != nil {
		cfg.Rng.Shuffle(p, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:cfg.FeatureSubset]
	}

	best := math.Inf(1)
	cands := s.cands[:0]
	for _, f := range feats {
		code, levels := s.codes[f], s.levels[f]
		for i, j := range idx {
			c := code[j]
			b := &s.bins[c]
			b.n++
			b.s += ys[i]
			b.q += sq[i]
			s.seen[c>>6] |= 1 << (c & 63)
		}
		var ln int
		var ls, lq float64
		prev := -1
		for w, word := range s.seen[:(len(levels)+63)/64] {
			if word == 0 {
				continue
			}
			s.seen[w] = 0
			for ; word != 0; word &= word - 1 {
				c := w<<6 | bits.TrailingZeros64(word)
				b := s.bins[c]
				s.bins[c] = bin{}
				if prev >= 0 {
					lo, hi := levels[prev], levels[c]
					thresh := (lo + hi) / 2
					switch rn := n - ln; {
					case thresh != thresh:
						// Nothing is <= NaN: the left side is empty and the
						// loop never picks it.
					case !(lo <= thresh && thresh < hi):
						// The midpoint rounded onto hi or overflowed: left
						// for the loop to partition and score.
						cands = append(cands, candidate{f, thresh, math.NaN()})
					case ln >= cfg.MinSamplesLeaf && rn >= cfg.MinSamplesLeaf:
						rs := total - ls
						score := (lq - ls*ls/float64(ln)) + ((sumSq - lq) - rs*rs/float64(rn))
						best = min(best, score)
						if !(score > best+2*delta) {
							cands = append(cands, candidate{f, thresh, score})
						}
					}
				}
				ln += b.n
				ls += b.s
				lq += b.q
				prev = c
			}
		}
	}
	s.cands = cands

	limit := best + 2*delta
	near, pick := 0, candidate{}
	for _, c := range cands {
		if !(c.score > limit) {
			near++
			pick = c
		}
	}
	if near == 0 {
		return 0, 0, false
	}
	// A lone candidate within 2δ is the loop's pick, unless the sweep could
	// not score it or δ gave up.
	if near == 1 && pick.score == pick.score && !math.IsInf(delta, 1) {
		return pick.feat, pick.thresh, true
	}

	// The per-candidate loop, on the candidates near the best: the node's
	// gathered column and targets in sample order, the same comparisons and
	// the same additions in the same order.
	bestFeat, bestThresh, bestScore := -1, 0.0, math.Inf(1)
	vals, gathered := s.vals[:n], -1
	for _, c := range cands {
		if c.score > limit {
			continue
		}
		if c.feat != gathered {
			for i, j := range idx {
				vals[i] = s.x[j][c.feat]
			}
			gathered = c.feat
		}
		t.rescored++
		var ln, rn int
		var lsum, lsq, rsum, rsq float64
		for i, v := range ys {
			if vals[i] <= c.thresh {
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
			bestFeat, bestThresh, bestScore = c.feat, c.thresh, score
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// partition reorders idx stably so the rows with x[j][feat] <= thresh come
// first, and returns how many there are.
func (s *splitter) partition(idx []int, feat int, thresh float64) int {
	right, nl := s.spill[:0], 0
	for _, j := range idx {
		if s.x[j][feat] <= thresh {
			idx[nl] = j
			nl++
		} else {
			right = append(right, j)
		}
	}
	copy(idx[nl:], right)
	return nl
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

// ForestFit trains a bagged ensemble of decorrelated regression trees. The
// features are coded once for all trees; each tree grows over a bootstrap
// drawn as a list of row indices.
func ForestFit(x [][]float64, y []float64, cfg ForestConfig, rng *rand.Rand) *Forest {
	if cfg.Trees == 0 {
		cfg.Trees = 50
	}
	n := len(x)
	f := &Forest{}
	if n == 0 || cfg.Trees < 0 {
		return f
	}
	p := len(x[0])
	// Each member tries ⌈√p⌉ features per split, at TreeConfig's defaults.
	tc := TreeConfig{FeatureSubset: int(math.Ceil(math.Sqrt(float64(p)))), Rng: rng}.withDefaults()
	s := newSplitter(x, y)
	boot := make([]int, n)
	f.trees = make([]*RegressionTree, 0, cfg.Trees)
	for t := 0; t < cfg.Trees; t++ {
		for i := range boot {
			boot[i] = rng.Intn(n)
		}
		f.trees = append(f.trees, s.fit(boot, tc))
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
