package mlkit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// seedPlusPlusBrute is the reference K-means++ seeding: every round
// re-measures every sample against all centroids chosen so far.
func seedPlusPlusBrute(samples [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := [][]float64{append([]float64(nil), samples[rng.Intn(len(samples))]...)}
	d2 := make([]float64, len(samples))
	for len(centroids) < k {
		total := 0.0
		for i, s := range samples {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := SqDist(s, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			centroids = append(centroids, append([]float64(nil), samples[rng.Intn(len(samples))]...))
			continue
		}
		centroids = append(centroids, append([]float64(nil), samples[rouletteBrute(d2, rng.Float64()*total)]...))
	}
	return centroids
}

// rouletteBrute returns the first index whose cumulative weight reaches r,
// or the last index with positive weight when rounding leaves r unreached.
func rouletteBrute(d2 []float64, r float64) int {
	for i, d := range d2 {
		r -= d
		if r <= 0 {
			return i
		}
	}
	for i := len(d2) - 1; i > 0; i-- {
		if d2[i] > 0 {
			return i
		}
	}
	return 0
}

// kmeansFitBrute is the reference fit: brute-force seeding, then Lloyd
// iterations that measure every sample — copies included — against every
// centroid, as KMeansFit did before it grouped rows.
func kmeansFitBrute(samples [][]float64, k int, maxIter int, rng *rand.Rand) *KMeans {
	if k > len(samples) {
		k = len(samples)
	}
	km := &KMeans{Centroids: seedPlusPlusBrute(samples, k, rng), Sizes: make([]int, k)}
	centroids := km.Centroids
	assign := make([]int, len(samples))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, s := range samples {
			if best := km.Nearest(s); assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, len(samples[0]))
		}
		for i, s := range samples {
			counts[assign[i]]++
			for j, v := range s {
				sums[assign[i]][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i, s := range samples {
					if d := SqDist(s, centroids[assign[i]]); d > farD {
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
	for _, s := range samples {
		c := km.Nearest(s)
		km.Sizes[c]++
		km.Inertia += SqDist(s, centroids[c])
	}
	return km
}

// countingSource counts the draws taken from the wrapped source.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }
func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// requireSameCentroids compares two centroid lists with == on every
// component.
func requireSameCentroids(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d centroids, brute force %d", what, len(got), len(want))
	}
	for c := range want {
		for j := range want[c] {
			if got[c][j] != want[c][j] {
				t.Fatalf("%s: centroid %d = %v, brute force %v", what, c, got[c], want[c])
			}
		}
	}
}

// TestSeedPlusPlusMatchesBruteForce checks the distinct-row, running-minimum
// seeding against the all-samples, all-centroids recompute, and the Lloyd
// loop on top of it against the per-sample loop: same centroids, sizes and
// inertia bit for bit and the same number of RNG draws, on spread-out data,
// on data with duplicated samples (the total == 0 branch), with k above the
// distinct-point count (the empty-cluster reseed), and with Assign held to a
// per-sample Nearest.
func TestSeedPlusPlusMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		gen := rand.New(rand.NewSource(1000 + seed))
		n, dim, k := 20+gen.Intn(200), 1+gen.Intn(6), 2+gen.Intn(40)
		distinct := n
		switch seed % 3 {
		case 1: // every sample appears several times
			distinct = 1 + n/4
		case 2: // fewer distinct points than centroids
			distinct = 1 + gen.Intn(k)
		}
		points := make([][]float64, distinct)
		for i := range points {
			points[i] = make([]float64, dim)
			for j := range points[i] {
				points[i][j] = gen.NormFloat64()
			}
		}
		samples := make([][]float64, n)
		for i := range samples {
			// Copies are equal in bits, not in identity.
			samples[i] = append([]float64(nil), points[gen.Intn(distinct)]...)
		}
		if k > n {
			k = n
		}
		what := fmt.Sprintf("seed %d (n=%d k=%d distinct=%d)", seed, n, k, distinct)

		got, want := &countingSource{src: rand.NewSource(seed)}, &countingSource{src: rand.NewSource(seed)}
		gc := seedPlusPlus(samples, groupRows(samples), k, rand.New(got))
		wc := seedPlusPlusBrute(samples, k, rand.New(want))
		if got.draws != want.draws {
			t.Errorf("%s: seeding took %d RNG draws, brute force %d", what, got.draws, want.draws)
		}
		requireSameCentroids(t, what+" seeding", gc, wc)

		got, want = &countingSource{src: rand.NewSource(seed)}, &countingSource{src: rand.NewSource(seed)}
		gm := KMeansFit(samples, k, 30, rand.New(got))
		wm := kmeansFitBrute(samples, k, 30, rand.New(want))
		if got.draws != want.draws {
			t.Errorf("%s: fit took %d RNG draws, brute force %d", what, got.draws, want.draws)
		}
		requireSameCentroids(t, what+" fit", gm.Centroids, wm.Centroids)
		if gm.Inertia != wm.Inertia {
			t.Errorf("%s: inertia %v, brute force %v", what, gm.Inertia, wm.Inertia)
		}
		assign := gm.Assign(samples)
		for c := range wm.Sizes {
			if gm.Sizes[c] != wm.Sizes[c] {
				t.Fatalf("%s: sizes %v, brute force %v", what, gm.Sizes, wm.Sizes)
			}
		}
		for i, s := range samples {
			if assign[i] != gm.Nearest(s) {
				t.Fatalf("%s: Assign put sample %d in cluster %d, Nearest says %d", what, i, assign[i], gm.Nearest(s))
			}
		}
	}
}

// scriptedSource replays vals, then repeats the last one forever.
type scriptedSource struct {
	vals []int64
	next int
}

func (s *scriptedSource) Int63() int64 {
	v := s.vals[s.next]
	if s.next < len(s.vals)-1 {
		s.next++
	}
	return v
}
func (s *scriptedSource) Seed(int64) {}

// TestSeedPlusPlusRouletteRoundingFallsBackToLastWeighted drives the D²
// draw with the largest value rand.Float64 can return. The weights are
// chosen so that subtracting them one by one from r = f·total leaves r > 0
// past the last sample; the draw must then land on the last sample that has
// any weight, not on sample 0, which is the first centroid itself.
func TestSeedPlusPlusRouletteRoundingFallsBackToLastWeighted(t *testing.T) {
	// 1<<63 - 1024 is the largest Int63 whose float64 is below 1<<63, i.e.
	// the largest draw Float64 does not reject: f = 1 - 2^-53.
	const maxDraw = 1<<63 - 1024
	src := &scriptedSource{vals: []int64{0, maxDraw}}

	// 1-D samples: sample 0 at the origin becomes the first centroid
	// (Intn draws 0), so d2[i] = x[i]². The last sample duplicates it.
	gen := rand.New(rand.NewSource(2))
	samples := make([][]float64, 64)
	for i := 1; i < len(samples)-1; i++ {
		samples[i] = []float64{gen.Float64()}
	}
	samples[0], samples[len(samples)-1] = []float64{0}, []float64{0}

	// Precondition: on these weights the running subtraction really does
	// end above zero, so the fallback is what picks the centroid.
	total := 0.0
	for _, s := range samples {
		total += s[0] * s[0]
	}
	r := float64(int64(maxDraw)) / (1 << 63) * total
	for _, s := range samples {
		r -= s[0] * s[0]
	}
	if r <= 0 {
		t.Fatalf("fixture no longer leaves a positive remainder (r = %v); pick another generator seed", r)
	}

	cs := seedPlusPlus(samples, groupRows(samples), 2, rand.New(src))
	if want := samples[len(samples)-2][0]; cs[1][0] != want {
		t.Errorf("second centroid = %v, want the last weighted sample %v", cs[1][0], want)
	}
}
