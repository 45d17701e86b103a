package trace

import (
	"math/rand"
	"sort"
	"time"
)

// CorrelationPoint is one bucket of a correlation curve.
type CorrelationPoint struct {
	// X is the bucket's coordinate: hours of submission interval
	// (Fig. 5b) or job-ID gap (Fig. 5c).
	X float64
	// Ratio is the fraction of sampled job pairs in the bucket that are
	// correlated.
	Ratio float64
}

// CorrelationVsInterval estimates the job-correlation ratio as a function
// of the submission interval (Fig. 5b). Buckets are
// [0,1h), [1h,2h), ... up to maxHours. Exhaustive pair enumeration is
// O(n²); samplesPerBucket random pairs per bucket (0 defaults to 2000)
// give the same curve at trace scale.
func (t *Trace) CorrelationVsInterval(maxHours, samplesPerBucket int, rng *rand.Rand) []CorrelationPoint {
	if samplesPerBucket <= 0 {
		samplesPerBucket = 2000
	}
	n := len(t.Jobs)
	out := make([]CorrelationPoint, 0, maxHours)
	if n < 2 {
		return out
	}
	submits := make([]time.Duration, n)
	for i := range t.Jobs {
		submits[i] = t.Jobs[i].Submit
	}
	for h := 0; h < maxHours; h++ {
		lo, hi := time.Duration(h)*time.Hour, time.Duration(h+1)*time.Hour
		correlated, pairs := 0, 0
		for s := 0; s < samplesPerBucket; s++ {
			i := rng.Intn(n)
			// Jobs submitted within [submit+lo, submit+hi).
			base := submits[i]
			a := sort.Search(n, func(k int) bool { return submits[k] >= base+lo })
			b := sort.Search(n, func(k int) bool { return submits[k] >= base+hi })
			if b <= a {
				continue
			}
			j := a + rng.Intn(b-a)
			if j == i {
				continue
			}
			pairs++
			if Correlated(&t.Jobs[i], &t.Jobs[j]) {
				correlated++
			}
		}
		ratio := 0.0
		if pairs > 0 {
			ratio = float64(correlated) / float64(pairs)
		}
		out = append(out, CorrelationPoint{X: float64(h), Ratio: ratio})
	}
	return out
}

// CorrelationVsIDGap estimates the job-correlation ratio as a function of
// the job-ID gap (Fig. 5c), in buckets of gapStep IDs up to maxGap.
func (t *Trace) CorrelationVsIDGap(maxGap, gapStep, samplesPerBucket int, rng *rand.Rand) []CorrelationPoint {
	if samplesPerBucket <= 0 {
		samplesPerBucket = 2000
	}
	if gapStep <= 0 {
		gapStep = 50
	}
	n := len(t.Jobs)
	var out []CorrelationPoint
	if n < 2 {
		return out
	}
	for gap := gapStep; gap <= maxGap; gap += gapStep {
		correlated, pairs := 0, 0
		for s := 0; s < samplesPerBucket; s++ {
			i := rng.Intn(n)
			// Sample a gap in (gap-gapStep, gap].
			g := gap - rng.Intn(gapStep)
			j := i + g
			if j >= n {
				continue
			}
			pairs++
			if Correlated(&t.Jobs[i], &t.Jobs[j]) {
				correlated++
			}
		}
		ratio := 0.0
		if pairs > 0 {
			ratio = float64(correlated) / float64(pairs)
		}
		out = append(out, CorrelationPoint{X: float64(gap), Ratio: ratio})
	}
	return out
}
