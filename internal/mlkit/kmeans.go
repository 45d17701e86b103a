package mlkit

import (
	"math"
	"math/rand"
)

// KMeans is a fitted K-means++ clustering model (Arthur & Vassilvitskii,
// SODA'07), the clustering stage of the estimation model generator
// (Section V-A).
type KMeans struct {
	Centroids [][]float64
	// Sizes[i] is the number of training samples assigned to cluster i.
	Sizes []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
}

// KMeansFit clusters samples into k groups using K-means++ seeding and
// Lloyd iterations (at most maxIter; 0 means 100). Fewer samples than k
// yields one cluster per distinct sample position.
func KMeansFit(samples [][]float64, k int, maxIter int, rng *rand.Rand) *KMeans {
	return kmeansFit(samples, groupRows(samples), k, maxIter, rng)
}

// kmeansFit is KMeansFit on pre-grouped samples. A sample's distance to a
// centroid depends on its row alone, so every distance is measured once per
// distinct row; every sum (centroid sums, Inertia) still runs over the
// samples in order, so the model is the one a per-sample loop fits, bit for
// bit.
func kmeansFit(samples [][]float64, groups rowGroups, k int, maxIter int, rng *rand.Rand) *KMeans {
	if len(samples) == 0 || k <= 0 {
		return &KMeans{}
	}
	if k > len(samples) {
		k = len(samples)
	}
	if maxIter <= 0 {
		maxIter = 100
	}

	km := &KMeans{Centroids: seedPlusPlus(samples, groups, k, rng)}
	centroids := km.Centroids
	// assign[g] is the cluster of every sample of class g.
	assign := make([]int, groups.distinct())
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for g, i := range groups.rep {
			if best := km.Nearest(samples[i]); assign[g] != best {
				assign[g] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		dim := len(samples[0])
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, s := range samples {
			c := assign[groups.of[i]]
			counts[c]++
			for j, v := range s {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Empty cluster: reseed from the sample farthest from its
				// centroid to keep k clusters alive.
				far, farD := 0, -1.0
				for g, i := range groups.rep {
					if d := SqDist(samples[i], centroids[assign[g]]); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = append([]float64(nil), samples[far]...)
				continue
			}
			for j := range sums[c] {
				sums[c][j] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
	}

	km.Sizes = make([]int, k)
	dist := make([]float64, groups.distinct())
	for g, i := range groups.rep {
		assign[g] = km.Nearest(samples[i])
		dist[g] = SqDist(samples[i], centroids[assign[g]])
	}
	for _, g := range groups.of {
		km.Sizes[assign[g]]++
		km.Inertia += dist[g]
	}
	return km
}

// seedPlusPlus picks k initial centroids with D² weighting. d2[g] is the
// running minimum squared distance from the samples of class g to the
// centroids chosen so far; each round folds in only the newest centroid, so
// seeding costs O(k·u) distance evaluations for u distinct rows. min is
// exact in floating point, and the roulette total and walk run over the
// samples in order, so every draw equals an all-centroids, all-samples
// recompute bit for bit.
func seedPlusPlus(samples [][]float64, groups rowGroups, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := samples[rng.Intn(len(samples))]
	centroids = append(centroids, append([]float64(nil), first...))

	d2 := make([]float64, groups.distinct())
	for g := range d2 {
		d2[g] = math.Inf(1)
	}
	for len(centroids) < k {
		newest := centroids[len(centroids)-1]
		for g, i := range groups.rep {
			if d := SqDist(samples[i], newest); d < d2[g] {
				d2[g] = d
			}
		}
		total := 0.0
		for _, g := range groups.of {
			total += d2[g]
		}
		if total == 0 {
			// All remaining samples coincide with centroids; duplicate one.
			centroids = append(centroids, append([]float64(nil), samples[rng.Intn(len(samples))]...))
			continue
		}
		r := rng.Float64() * total
		// Until the walk reaches r, idx trails it as the last sample with
		// any weight: rounding in the running subtraction can leave r > 0
		// past the final sample, and the draw then belongs to that one.
		idx := 0
		for i, g := range groups.of {
			d := d2[g]
			if d > 0 {
				idx = i
			}
			r -= d
			if r <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), samples[idx]...))
	}
	return centroids
}

// K returns the number of clusters.
func (k *KMeans) K() int { return len(k.Centroids) }

// Nearest returns the index of the closest centroid to x, the first one
// on ties: the argmin of SqDist, with its bits. It adds each distance's
// terms in SqDist's order, and drops a centroid once the partial sum after
// a block of 4 terms reaches the best distance so far: adding non-negative
// terms never lowers a float sum, so the full sum could not win either,
// and a NaN or +Inf distance fails d < bestD as it would whole. One test
// per block rather than per term keeps the loop as fast as SqDist's where
// nothing is dropped.
func (k *KMeans) Nearest(x []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cen := range k.Centroids {
		if len(cen) != len(x) {
			panic("mlkit: SqDist length mismatch")
		}
		d, j := 0.0, 0
		for ; j+4 <= len(x); j += 4 {
			d0, d1, d2, d3 := x[j]-cen[j], x[j+1]-cen[j+1], x[j+2]-cen[j+2], x[j+3]-cen[j+3]
			d += d0 * d0
			d += d1 * d1
			d += d2 * d2
			d += d3 * d3
			if d >= bestD {
				break
			}
		}
		if d >= bestD {
			continue
		}
		for ; j < len(x); j++ {
			dj := x[j] - cen[j]
			d += dj * dj
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// Assign returns the cluster index of every sample, measuring each distinct
// row once.
func (k *KMeans) Assign(samples [][]float64) []int {
	groups := groupRows(samples)
	near := make([]int, groups.distinct())
	for g, i := range groups.rep {
		near[g] = k.Nearest(samples[i])
	}
	out := make([]int, len(samples))
	for i, g := range groups.of {
		out[i] = near[g]
	}
	return out
}

// ChooseKElbow runs K-means for k in [kMin, kMax] and picks the elbow of
// the inertia curve — the k with the maximum distance from the line
// connecting (kMin, inertia(kMin)) and (kMax, inertia(kMax)) — the
// "classical elbow method" the paper uses to arrive at K=15.
func ChooseKElbow(samples [][]float64, kMin, kMax, maxIter int, rng *rand.Rand) int {
	if kMin < 1 {
		kMin = 1
	}
	if kMax > len(samples) {
		kMax = len(samples)
	}
	if kMax <= kMin {
		return kMin
	}
	inertias := make([]float64, kMax-kMin+1)
	groups := groupRows(samples)
	for k := kMin; k <= kMax; k++ {
		inertias[k-kMin] = kmeansFit(samples, groups, k, maxIter, rng).Inertia
	}
	// Distance from the chord.
	x1, y1 := float64(kMin), inertias[0]
	x2, y2 := float64(kMax), inertias[len(inertias)-1]
	dx, dy := x2-x1, y2-y1
	norm := math.Hypot(dx, dy)
	if norm == 0 {
		return kMin
	}
	bestK, bestD := kMin, -1.0
	for k := kMin; k <= kMax; k++ {
		px, py := float64(k), inertias[k-kMin]
		d := math.Abs(dy*px-dx*py+x2*y1-y2*x1) / norm
		if d > bestD {
			bestK, bestD = k, d
		}
	}
	return bestK
}
