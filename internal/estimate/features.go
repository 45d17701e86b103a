// Package estimate implements the ESlurm job-runtime-estimation framework
// of Section V — estimation model generator (K-means++ clustering + one SVR
// per cluster over an interest window of completed jobs), event-driven
// real-time estimation module (slack-adjusted, AEA-gated against the user
// estimate), and record module (per-cluster average estimation accuracy,
// Eqs. 4–5) — plus the baseline estimators it is compared against in
// Fig. 11b: user estimates, Last-2, global SVM, random forest, IRPA, TRIP
// and PREP.
//
// IRPA averages the SVM baseline's own model: it holds that SVM, feeds it
// every completed job and fits its forest and ridge on the SVM's training
// set, so the global SVR of a window is fitted once.
//
// Determinism: the framework is engine-free and its one stochastic step,
// K-means++ seeding, draws from a rand.Rand seeded by FrameworkConfig.Seed;
// the forest baselines (RandomForest, IRPA) draw bootstraps and feature
// samples from their own seeded rand.Rand. Identical job streams produce
// identical models and estimates. EvaluateAll replays one trace through a
// Roster: its replays run side by side on workpool goroutines, and the
// rows of one replay run in lockstep — every row estimates a job before
// any observes it — so Fig. 11b's SVM row can read IRPA's SVM. A replay
// owns its rows' histories, models and seeds and only reads the jobs, so
// every row's result is that of a standalone Evaluate at any worker
// count. Each estimator counts its model fits (Work), which the perf
// record keeps.
package estimate

import (
	"hash/fnv"
	"math"
	"time"

	"eslurm/internal/trace"
)

// String features are embedded by signed feature hashing: each string maps
// to ±1 over several dimensions, so two distinct strings sit at a
// near-constant large distance while equal strings coincide — exactly the
// categorical geometry K-means and the RBF kernel need. One scalar hash
// would place unrelated names arbitrarily close.
const (
	nameDims = 8
	userDims = 4
	// NumFeatures is the dimensionality of the encoded Table IV vector:
	// hashed name, hashed user, log2 nodes, log2 cores, submission hour.
	NumFeatures = nameDims + userDims + 3
)

// Indices of the scalar features within the encoded vector.
const (
	FeatNodes = nameDims + userDims
	FeatCores = nameDims + userDims + 1
	FeatHour  = nameDims + userDims + 2
)

// Features encodes a job's Table IV attributes as a numeric vector.
// Scaling to comparable magnitudes is the caller's job (the framework
// standardizes then applies similarity weights).
func Features(j *trace.Job) []float64 {
	out := make([]float64, NumFeatures)
	hashInto(j.Name, out[:nameDims])
	hashInto(j.User, out[nameDims:nameDims+userDims])
	out[FeatNodes] = math.Log2(float64(max(1, j.Nodes)))
	out[FeatCores] = math.Log2(float64(max(1, j.Cores)))
	out[FeatHour] = float64(j.SubmitHour())
	return out
}

// hashInto fills dst with the string's signed hash embedding.
func hashInto(s string, dst []float64) {
	h := fnv.New64a()
	h.Write([]byte(s))
	bits := h.Sum64()
	for i := range dst {
		if bits&1 == 1 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
		bits >>= 1
		if i == 62 { // never in practice (dims << 63), defensive
			h.Write([]byte{0})
			bits = h.Sum64()
		}
	}
}

// logSeconds converts a duration to the regression target space.
func logSeconds(d time.Duration) float64 {
	s := d.Seconds()
	if s < 1 {
		s = 1
	}
	return math.Log(s)
}

// fromLogSeconds converts a regression output back to a duration,
// clamping to a sane range (1 s .. ~31 days) against optimizer blowups.
func fromLogSeconds(v float64) time.Duration {
	if v > 14.8 { // e^14.8 ≈ 2.7M s ≈ 31 days
		v = 14.8
	}
	s := math.Exp(v)
	if s < 1 {
		s = 1
	}
	return time.Duration(s * float64(time.Second))
}

// EA implements Eq. 4: the estimation accuracy of a single job, in (0, 1],
// where 1 is a perfect estimate.
func EA(predicted, actual time.Duration) float64 {
	if predicted <= 0 || actual <= 0 {
		return 0
	}
	if predicted < actual {
		return float64(predicted) / float64(actual)
	}
	return float64(actual) / float64(predicted)
}
